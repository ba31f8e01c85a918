package storage

import (
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/datum"
	"repro/internal/lock"
)

// chainLen walks oid's committed version chain and returns its length.
func chainLen(s *Store, oid datum.OID) int {
	v, ok := s.shardOf(oid).objects.Load(oid)
	if !ok {
		return 0
	}
	n := 0
	for cur := v.(*mvEntry).head.Load(); cur != nil; cur = cur.prev.Load() {
		n++
	}
	return n
}

// TestReadsHoldNoShardLocks proves the tentpole claim directly: with
// every shard mutex held exclusively, lock-free Get and ScanClassAt
// still complete. (ScanClass and IndexCandidates are exercised by
// TestCommittersProgressMidScan; IndexCandidates still takes a shard
// read lock for the btree probe by design.)
func TestReadsHoldNoShardLocks(t *testing.T) {
	s, _ := ephemeral(t)
	var oids []datum.OID
	for i := 0; i < 20; i++ {
		oid := s.AllocOID()
		oids = append(oids, oid)
		commitOne(t, s, lock.TxnID(i+1), rec(oid, "F", map[string]datum.Value{"v": datum.Int(int64(i))}))
	}
	snap := s.AcquireSnapshot()
	defer snap.Release()

	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()

	done := make(chan int, 1)
	go func() {
		seen := 0
		for _, oid := range oids {
			if _, ok := s.GetAt(99, oid, snap.LSN()); ok {
				seen++
			}
		}
		s.ScanClassAt(99, "F", snap.LSN(), func(Record) bool { seen++; return true })
		done <- seen
	}()
	select {
	case seen := <-done:
		if seen != 2*len(oids) {
			t.Fatalf("lock-free reads saw %d records, want %d", seen, 2*len(oids))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("lock-free reads blocked on exclusively-held shard mutexes")
	}
}

// TestCommittersProgressMidScan: a long ScanClass holds no shard
// RWMutex, so a committer makes progress while the scan is paused
// mid-callback.
func TestCommittersProgressMidScan(t *testing.T) {
	s, _ := ephemeral(t)
	for i := 0; i < 10; i++ {
		commitOne(t, s, lock.TxnID(i+1), rec(s.AllocOID(), "F", map[string]datum.Value{"v": datum.Int(int64(i))}))
	}

	paused := make(chan struct{}) // closed when the scan is inside fn
	resume := make(chan struct{}) // closed when the committer is done
	scanned := make(chan int, 1)
	go func() {
		n, first := 0, true
		s.ScanClass(50, "F", func(Record) bool {
			if first {
				first = false
				close(paused)
				<-resume
			}
			n++
			return true
		})
		scanned <- n
	}()

	<-paused
	committed := make(chan error, 1)
	go func() {
		s.Put(60, rec(s.AllocOID(), "F", map[string]datum.Value{"v": datum.Int(999)}))
		committed <- s.CommitTop(60)
	}()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("committer blocked behind a paused ScanClass")
	}
	close(resume)
	if n := <-scanned; n != 10 {
		t.Fatalf("snapshot scan saw %d rows, want 10 (mid-scan commit must be invisible)", n)
	}
	// A fresh scan sees the row committed mid-flight.
	n := 0
	s.ScanClass(70, "F", func(Record) bool { n++; return true })
	if n != 11 {
		t.Fatalf("post-commit scan saw %d rows, want 11", n)
	}
}

// TestVersionGCBoundByPinnedSnapshot: while an old snapshot is
// pinned, the chain keeps every version the snapshot can reach (so
// its length is bounded by updates-since-pin + 1, never collapsing
// under the pin); once released, VersionGC collapses it to one.
func TestVersionGCBoundByPinnedSnapshot(t *testing.T) {
	s, _ := ephemeral(t)
	oid := s.AllocOID()
	commitOne(t, s, 1, rec(oid, "F", map[string]datum.Value{"v": datum.Int(0)}))

	pin := s.AcquireSnapshot()
	const updates = 25
	for i := 1; i <= updates; i++ {
		commitOne(t, s, lock.TxnID(i+1), rec(oid, "F", map[string]datum.Value{"v": datum.Int(int64(i))}))
	}
	if got := chainLen(s, oid); got != updates+1 {
		t.Fatalf("chain length = %d before GC, want %d", got, updates+1)
	}

	res := s.VersionGC()
	if res.Watermark != pin.LSN() {
		t.Fatalf("GC watermark = %d, want pinned %d", res.Watermark, pin.LSN())
	}
	// Everything above the pin survives, plus the one version the pin
	// still reads: the GC must not have shortened the chain at all.
	if got := chainLen(s, oid); got != updates+1 {
		t.Fatalf("chain length = %d after pinned GC, want %d", got, updates+1)
	}
	if got, ok := s.GetAt(99, oid, pin.LSN()); !ok || got.Attrs["v"].AsInt() != 0 {
		t.Fatalf("pinned snapshot read = %v %v, want v=0", got, ok)
	}

	pin.Release()
	res = s.VersionGC()
	if res.Reclaimed == 0 {
		t.Fatalf("GC reclaimed nothing after pin release: %+v", res)
	}
	if got := chainLen(s, oid); got != 1 {
		t.Fatalf("chain length = %d after unpinned GC, want 1", got)
	}
	if got, _ := s.Get(99, oid); got.Attrs["v"].AsInt() != updates {
		t.Fatalf("newest version = %v, want v=%d", got, updates)
	}
	checkExtentLayout(t, s)
}

// TestVersionGCIntermediateWatermark: a pin in the middle of the
// history keeps exactly the versions at or above what it can reach.
func TestVersionGCIntermediateWatermark(t *testing.T) {
	s, _ := ephemeral(t)
	oid := s.AllocOID()
	for i := 0; i < 5; i++ {
		commitOne(t, s, lock.TxnID(i+1), rec(oid, "F", map[string]datum.Value{"v": datum.Int(int64(i))}))
	}
	pin := s.AcquireSnapshot() // sees v=4
	for i := 5; i < 10; i++ {
		commitOne(t, s, lock.TxnID(i+1), rec(oid, "F", map[string]datum.Value{"v": datum.Int(int64(i))}))
	}
	s.VersionGC()
	// Versions v=0..3 are unreachable by any snapshot and must be
	// gone; v=4 (the pin's view) and v=5..9 must survive.
	if got := chainLen(s, oid); got != 6 {
		t.Fatalf("chain length = %d after GC, want 6", got)
	}
	if got, ok := s.GetAt(99, oid, pin.LSN()); !ok || got.Attrs["v"].AsInt() != 4 {
		t.Fatalf("pinned read = %v %v, want v=4", got, ok)
	}
	// The trimmed chain must keep its GC candidacy: releasing the pin
	// and sweeping again (no intervening install) collapses it fully.
	pin.Release()
	s.VersionGC()
	if got := chainLen(s, oid); got != 1 {
		t.Fatalf("chain length = %d after pin release + GC, want 1", got)
	}
	checkExtentLayout(t, s)
}

// TestSnapshotScanAtomicFlip: a multi-record commit is all-or-nothing
// to snapshot scans — no scan may observe a half-installed commit.
func TestSnapshotScanAtomicFlip(t *testing.T) {
	s, _ := ephemeral(t)
	const n = 64
	var oids []datum.OID
	for i := 0; i < n; i++ {
		oid := s.AllocOID()
		oids = append(oids, oid)
		s.Put(1, rec(oid, "F", map[string]datum.Value{"v": datum.Int(0)}))
	}
	if err := s.CommitTop(1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		var tx lock.TxnID = 100
		for {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			tx++
			gen := int64(tx - 100)
			for _, oid := range oids {
				s.Put(tx, rec(oid, "F", map[string]datum.Value{"v": datum.Int(gen)}))
			}
			if err := s.CommitTop(tx); err != nil {
				writerDone <- err
				return
			}
		}
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		vals := map[int64]int{}
		rows := 0
		s.ScanClass(7, "F", func(r Record) bool {
			vals[r.Attrs["v"].AsInt()]++
			rows++
			return true
		})
		if rows != n {
			t.Fatalf("scan saw %d rows, want %d", rows, n)
		}
		if len(vals) != 1 {
			t.Fatalf("scan observed a torn commit: generations %v", vals)
		}
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryEquivalenceVersionChains: replaying the WAL (with and
// without a prior VersionGC) reproduces exactly the pre-crash
// committed state, with single-version chains and a sane published
// LSN.
func TestRecoveryEquivalenceVersionChains(t *testing.T) {
	for _, gcFirst := range []bool{false, true} {
		dir := t.TempDir()
		s, _ := Open(newTopo(), Options{Dir: dir, NoSync: true})
		var oids []datum.OID
		for i := 0; i < 8; i++ {
			oids = append(oids, s.AllocOID())
		}
		// Several generations of updates plus a delete, so chains are
		// multi-version at crash time.
		tx := lock.TxnID(1)
		for gen := 0; gen < 4; gen++ {
			for j, oid := range oids {
				s.Put(tx, rec(oid, "F", map[string]datum.Value{"v": datum.Int(int64(gen*100 + j))}))
				if err := s.CommitTop(tx); err != nil {
					t.Fatal(err)
				}
				tx++
			}
		}
		s.Put(tx, Record{OID: oids[3], Class: "F", Deleted: true})
		if err := s.CommitTop(tx); err != nil {
			t.Fatal(err)
		}
		if gcFirst {
			s.VersionGC()
		}

		want := map[datum.OID]int64{}
		s.ScanClass(999, "F", func(r Record) bool {
			want[r.OID] = r.Attrs["v"].AsInt()
			return true
		})
		if len(want) != 7 {
			t.Fatalf("pre-crash live rows = %d, want 7", len(want))
		}
		// Abrupt stop: no Close, reopen from WAL (+checkpoint if any).
		s2, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		got := map[datum.OID]int64{}
		s2.ScanClass(999, "F", func(r Record) bool {
			got[r.OID] = r.Attrs["v"].AsInt()
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("gcFirst=%v: recovered rows = %d, want %d", gcFirst, len(got), len(want))
		}
		for oid, v := range want {
			if got[oid] != v {
				t.Fatalf("gcFirst=%v: oid %v recovered v=%d, want %d", gcFirst, oid, got[oid], v)
			}
		}
		if _, ok := s2.Get(999, oids[3]); ok {
			t.Fatalf("gcFirst=%v: deleted object resurrected by recovery", gcFirst)
		}
		// Recovery rebuilds single-version chains and republishes.
		for _, oid := range oids {
			if oid == oids[3] {
				continue
			}
			if n := chainLen(s2, oid); n != 1 {
				t.Fatalf("gcFirst=%v: recovered chain length = %d, want 1", gcFirst, n)
			}
		}
		if s2.PublishedLSN() == 0 {
			t.Fatalf("gcFirst=%v: recovered store published LSN = 0", gcFirst)
		}
		s.Close()
		s2.Close()
	}
}

// TestTombstoneChainGC: a deleted object's chain disappears entirely
// once no snapshot can reach a live version, and its index entries go
// with it.
func TestTombstoneChainGC(t *testing.T) {
	s, _ := ephemeral(t)
	s.RegisterIndex("F", "v")
	oid := s.AllocOID()
	commitOne(t, s, 1, rec(oid, "F", map[string]datum.Value{"v": datum.Int(7)}))
	s.Put(2, Record{OID: oid, Class: "F", Deleted: true})
	if err := s.CommitTop(2); err != nil {
		t.Fatal(err)
	}
	s.VersionGC()
	if n := chainLen(s, oid); n != 0 {
		t.Fatalf("tombstone chain survived GC: length %d", n)
	}
	if _, ok := s.shardOf(oid).objects.Load(oid); ok {
		t.Fatal("entry not removed for fully-dead chain")
	}
	key := btree.Include(datum.Int(7).Key())
	if cands := s.IndexCandidates(9, "F", "v", key, key); len(cands) != 0 {
		t.Fatalf("index entries for dead chain survived GC: %v", cands)
	}
	checkExtentLayout(t, s)
}
