package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/datum"
	"repro/internal/lock"
)

// topo is a parent-map Topology for tests.
type topo struct {
	mu     sync.Mutex
	parent map[lock.TxnID]lock.TxnID
}

func newTopo() *topo { return &topo{parent: map[lock.TxnID]lock.TxnID{}} }

func (f *topo) setParent(child, parent lock.TxnID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.parent[child] = parent
}

func (f *topo) IsAncestorOrSelf(anc, desc lock.TxnID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if anc == desc {
			return true
		}
		p, ok := f.parent[desc]
		if !ok {
			return false
		}
		desc = p
	}
}

func ephemeral(t *testing.T) (*Store, *topo) {
	t.Helper()
	tp := newTopo()
	s, err := Open(tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, tp
}

func rec(oid datum.OID, class string, attrs map[string]datum.Value) Record {
	return Record{OID: oid, Class: class, Attrs: attrs}
}

func TestPutGetOwnWrites(t *testing.T) {
	s, _ := ephemeral(t)
	oid := s.AllocOID()
	s.Put(5, rec(oid, "Stock", map[string]datum.Value{"price": datum.Float(50)}))
	got, ok := s.Get(5, oid)
	if !ok || got.Attrs["price"].AsFloat() != 50 {
		t.Fatalf("own write invisible: %v %v", got, ok)
	}
	// Unrelated transaction must not see it.
	if _, ok := s.Get(9, oid); ok {
		t.Fatal("uncommitted write visible to stranger")
	}
}

func TestChildSeesParentWrites(t *testing.T) {
	s, tp := ephemeral(t)
	tp.setParent(2, 1)
	oid := s.AllocOID()
	s.Put(1, rec(oid, "C", map[string]datum.Value{"v": datum.Int(1)}))
	got, ok := s.Get(2, oid)
	if !ok || got.Attrs["v"].AsInt() != 1 {
		t.Fatal("child cannot see ancestor write")
	}
	// Child overwrite shadows for the child only...
	s.Put(2, rec(oid, "C", map[string]datum.Value{"v": datum.Int(2)}))
	if got, _ := s.Get(2, oid); got.Attrs["v"].AsInt() != 2 {
		t.Fatal("child does not see own overwrite")
	}
	if got, _ := s.Get(1, oid); got.Attrs["v"].AsInt() != 1 {
		t.Fatal("parent saw child's uncommitted overwrite")
	}
	// ...until nested commit folds it up.
	if err := s.CommitNested(2, 1); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(1, oid); got.Attrs["v"].AsInt() != 2 {
		t.Fatal("nested commit did not fold into parent")
	}
}

func TestAbortDiscards(t *testing.T) {
	s, _ := ephemeral(t)
	oid := s.AllocOID()
	s.Put(1, rec(oid, "C", map[string]datum.Value{"v": datum.Int(1)}))
	s.CommitTop(1)
	s.Put(2, rec(oid, "C", map[string]datum.Value{"v": datum.Int(99)}))
	s.AbortTxn(2)
	got, ok := s.Get(3, oid)
	if !ok || got.Attrs["v"].AsInt() != 1 {
		t.Fatalf("abort did not restore committed state: %v", got)
	}
}

func TestAbortOfCreatorRemovesObject(t *testing.T) {
	s, _ := ephemeral(t)
	oid := s.AllocOID()
	s.Put(1, rec(oid, "C", map[string]datum.Value{"v": datum.Int(1)}))
	s.AbortTxn(1)
	if _, ok := s.Get(2, oid); ok {
		t.Fatal("aborted create still visible")
	}
	count := 0
	s.ScanClass(2, "C", func(Record) bool { count++; return true })
	if count != 0 {
		t.Fatal("aborted create left extent entry")
	}
}

func TestCommitTopMakesVisible(t *testing.T) {
	s, _ := ephemeral(t)
	oid := s.AllocOID()
	s.Put(1, rec(oid, "C", map[string]datum.Value{"v": datum.Int(7)}))
	if err := s.CommitTop(1); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(42, oid)
	if !ok || got.Attrs["v"].AsInt() != 7 {
		t.Fatal("committed write not visible to new txn")
	}
}

func TestDeleteTombstone(t *testing.T) {
	s, _ := ephemeral(t)
	oid := s.AllocOID()
	s.Put(1, rec(oid, "C", map[string]datum.Value{"v": datum.Int(1)}))
	s.CommitTop(1)
	s.Put(2, Record{OID: oid, Class: "C", Deleted: true})
	// Deleter sees it gone; others still see it.
	if _, ok := s.Get(2, oid); ok {
		t.Fatal("deleter still sees object")
	}
	if _, ok := s.Get(3, oid); !ok {
		t.Fatal("uncommitted delete visible to stranger")
	}
	s.CommitTop(2)
	if _, ok := s.Get(3, oid); ok {
		t.Fatal("object survived committed delete")
	}
}

func TestScanClassVisibilityAndOrder(t *testing.T) {
	s, _ := ephemeral(t)
	var oids []datum.OID
	for i := 0; i < 5; i++ {
		oid := s.AllocOID()
		oids = append(oids, oid)
		s.Put(1, rec(oid, "C", map[string]datum.Value{"i": datum.Int(int64(i))}))
	}
	s.CommitTop(1)
	// Txn 2 deletes one and adds one (uncommitted).
	s.Put(2, Record{OID: oids[1], Class: "C", Deleted: true})
	newOID := s.AllocOID()
	s.Put(2, rec(newOID, "C", map[string]datum.Value{"i": datum.Int(100)}))

	collect := func(tx lock.TxnID) []int64 {
		var out []int64
		s.ScanClass(tx, "C", func(r Record) bool {
			out = append(out, r.Attrs["i"].AsInt())
			return true
		})
		return out
	}
	if got := collect(2); fmt.Sprint(got) != "[0 2 3 4 100]" {
		t.Fatalf("writer scan = %v", got)
	}
	if got := collect(3); fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("stranger scan = %v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	s, _ := ephemeral(t)
	for i := 0; i < 10; i++ {
		s.Put(1, rec(s.AllocOID(), "C", map[string]datum.Value{"i": datum.Int(int64(i))}))
	}
	s.CommitTop(1)
	n := 0
	s.ScanClass(2, "C", func(Record) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("visited %d", n)
	}
}

func TestIndexLookupCommitted(t *testing.T) {
	s, _ := ephemeral(t)
	s.RegisterIndex("Stock", "price")
	var oids []datum.OID
	for i := 0; i < 10; i++ {
		oid := s.AllocOID()
		oids = append(oids, oid)
		s.Put(1, rec(oid, "Stock", map[string]datum.Value{"price": datum.Float(float64(i * 10))}))
	}
	s.CommitTop(1)
	lo := btree.Include(datum.Float(30).Key())
	hi := btree.Include(datum.Float(50).Key())
	got := s.IndexCandidates(2, "Stock", "price", lo, hi)
	if len(got) != 3 {
		t.Fatalf("candidates = %v", got)
	}
}

func TestIndexSeesOwnUncommittedWrites(t *testing.T) {
	s, _ := ephemeral(t)
	s.RegisterIndex("Stock", "price")
	oid := s.AllocOID()
	s.Put(1, rec(oid, "Stock", map[string]datum.Value{"price": datum.Float(100)}))
	s.CommitTop(1)
	// Txn 2 moves the price out of the committed index range; index
	// candidates must still include the object for txn 2 (it will be
	// re-filtered by the caller against the visible record).
	s.Put(2, rec(oid, "Stock", map[string]datum.Value{"price": datum.Float(5)}))
	lo := btree.Include(datum.Float(0).Key())
	hi := btree.Include(datum.Float(10).Key())
	got := s.IndexCandidates(2, "Stock", "price", lo, hi)
	if len(got) != 1 || got[0] != oid {
		t.Fatalf("candidates for writer = %v", got)
	}
	// A stranger gets only the committed view (price 100, not in range).
	if got := s.IndexCandidates(3, "Stock", "price", lo, hi); len(got) != 0 {
		t.Fatalf("candidates for stranger = %v", got)
	}
}

func TestIndexMaintainedAcrossCommits(t *testing.T) {
	s, _ := ephemeral(t)
	s.RegisterIndex("Stock", "price")
	oid := s.AllocOID()
	s.Put(1, rec(oid, "Stock", map[string]datum.Value{"price": datum.Float(10)}))
	s.CommitTop(1)
	s.Put(2, rec(oid, "Stock", map[string]datum.Value{"price": datum.Float(90)}))
	s.CommitTop(2)
	inRange := func(lo, hi float64) int {
		c := s.IndexCandidates(9, "Stock", "price",
			btree.Include(datum.Float(lo).Key()), btree.Include(datum.Float(hi).Key()))
		return len(c)
	}
	// Installs defer index-entry removal to the version GC (an old
	// snapshot may still probe for the old value); until it runs the
	// old entry is a permitted false positive, afterwards it is gone.
	s.VersionGC()
	if inRange(0, 20) != 0 {
		t.Fatal("old index entry not removed by version GC")
	}
	if inRange(80, 100) != 1 {
		t.Fatal("new index entry missing")
	}
	// Delete removes the entry (again after the GC collapses the
	// tombstoned chain).
	s.Put(3, Record{OID: oid, Class: "Stock", Deleted: true})
	s.CommitTop(3)
	s.VersionGC()
	if inRange(80, 100) != 0 {
		t.Fatal("index entry survived delete")
	}
}

func TestRegisterIndexBuildsFromExisting(t *testing.T) {
	s, _ := ephemeral(t)
	oid := s.AllocOID()
	s.Put(1, rec(oid, "Stock", map[string]datum.Value{"price": datum.Float(42)}))
	s.CommitTop(1)
	s.RegisterIndex("Stock", "price") // after the data exists
	got := s.IndexCandidates(2, "Stock", "price",
		btree.Include(datum.Float(42).Key()), btree.Include(datum.Float(42).Key()))
	if len(got) != 1 {
		t.Fatalf("late-built index missed existing row: %v", got)
	}
	if !s.HasIndex("Stock", "price") || s.HasIndex("Stock", "symbol") {
		t.Fatal("HasIndex wrong")
	}
}

func TestModSeqAdvances(t *testing.T) {
	s, _ := ephemeral(t)
	before := s.ModSeq("C")
	s.Put(1, rec(s.AllocOID(), "C", nil))
	if s.ModSeq("C") == before {
		t.Fatal("ModSeq must advance on Put")
	}
	if s.ModSeq("Other") != 0 {
		t.Fatal("unrelated class bumped")
	}
}

func TestDirtyOIDs(t *testing.T) {
	s, _ := ephemeral(t)
	a, b := s.AllocOID(), s.AllocOID()
	s.Put(1, rec(b, "C", nil))
	s.Put(1, rec(a, "C", nil))
	got := s.DirtyOIDs(1)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("DirtyOIDs = %v", got)
	}
	s.CommitTop(1)
	if len(s.DirtyOIDs(1)) != 0 {
		t.Fatal("dirty set survived commit")
	}
}

func TestMultiLevelFold(t *testing.T) {
	// grandchild -> child -> parent -> committed
	s, tp := ephemeral(t)
	tp.setParent(2, 1)
	tp.setParent(3, 2)
	oid := s.AllocOID()
	s.Put(3, rec(oid, "C", map[string]datum.Value{"v": datum.Int(3)}))
	s.CommitNested(3, 2)
	if got, ok := s.Get(2, oid); !ok || got.Attrs["v"].AsInt() != 3 {
		t.Fatal("fold to child failed")
	}
	if _, ok := s.Get(1, oid); ok {
		t.Fatal("parent sees grandchild's fold prematurely")
	}
	s.CommitNested(2, 1)
	if got, ok := s.Get(1, oid); !ok || got.Attrs["v"].AsInt() != 3 {
		t.Fatal("fold to parent failed")
	}
	s.CommitTop(1)
	if got, ok := s.Get(77, oid); !ok || got.Attrs["v"].AsInt() != 3 {
		t.Fatal("final commit failed")
	}
}

func TestNestedAbortAfterChildCommit(t *testing.T) {
	// Child commits into parent; parent aborts; everything vanishes.
	s, tp := ephemeral(t)
	tp.setParent(2, 1)
	oid := s.AllocOID()
	s.Put(2, rec(oid, "C", map[string]datum.Value{"v": datum.Int(9)}))
	s.CommitNested(2, 1)
	s.AbortTxn(1)
	if _, ok := s.Get(5, oid); ok {
		t.Fatal("parent abort did not discard child's committed effects")
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	tp := newTopo()
	s, err := Open(tp, Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	oid := s.AllocOID()
	s.Put(1, rec(oid, "C", map[string]datum.Value{"v": datum.Int(11)}))
	s.CommitTop(1)
	oid2 := s.AllocOID()
	s.Put(2, rec(oid2, "C", map[string]datum.Value{"v": datum.Int(22)}))
	// Txn 2 never commits: crash now.
	s.Close()

	s2, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok := s2.Get(9, oid); !ok || got.Attrs["v"].AsInt() != 11 {
		t.Fatal("committed record lost in recovery")
	}
	if _, ok := s2.Get(9, oid2); ok {
		t.Fatal("uncommitted record resurrected by recovery")
	}
	// OIDs must not be reused after recovery.
	if next := s2.AllocOID(); next <= oid {
		t.Fatalf("AllocOID after recovery = %v, must exceed %v", next, oid)
	}
}

func TestRecoveryOfDelete(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(newTopo(), Options{Dir: dir, NoSync: true})
	oid := s.AllocOID()
	s.Put(1, rec(oid, "C", map[string]datum.Value{"v": datum.Int(1)}))
	s.CommitTop(1)
	s.Put(2, Record{OID: oid, Class: "C", Deleted: true})
	s.CommitTop(2)
	s.Close()

	s2, _ := Open(newTopo(), Options{Dir: dir, NoSync: true})
	defer s2.Close()
	if _, ok := s2.Get(9, oid); ok {
		t.Fatal("deleted object resurrected by recovery")
	}
	checkExtentLayout(t, s2)
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(newTopo(), Options{Dir: dir, NoSync: true})
	var oids []datum.OID
	for i := 0; i < 5; i++ {
		oid := s.AllocOID()
		oids = append(oids, oid)
		s.Put(lock.TxnID(i+1), rec(oid, "C", map[string]datum.Value{"i": datum.Int(int64(i))}))
		s.CommitTop(lock.TxnID(i + 1))
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More commits after the checkpoint land in the fresh WAL.
	oid := s.AllocOID()
	s.Put(9, rec(oid, "C", map[string]datum.Value{"i": datum.Int(99)}))
	s.CommitTop(9)
	s.Close()

	s2, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	count := 0
	s2.ScanClass(1, "C", func(Record) bool { count++; return true })
	if count != 6 {
		t.Fatalf("recovered %d objects, want 6", count)
	}
	if got, ok := s2.Get(1, oid); !ok || got.Attrs["i"].AsInt() != 99 {
		t.Fatal("post-checkpoint commit lost")
	}
	checkExtentLayout(t, s2)
}

func TestStatsCounters(t *testing.T) {
	s, _ := ephemeral(t)
	oid := s.AllocOID()
	s.Put(1, rec(oid, "C", nil))
	s.Get(1, oid)
	s.ScanClass(1, "C", func(Record) bool { return true })
	s.CommitTop(1)
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.Scans != 1 || st.TopCommits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s, _ := ephemeral(t)
	// Seed committed data.
	var oids []datum.OID
	for i := 0; i < 20; i++ {
		oid := s.AllocOID()
		oids = append(oids, oid)
		s.Put(1, rec(oid, "C", map[string]datum.Value{"v": datum.Int(0)}))
	}
	s.CommitTop(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := lock.TxnID(100 + w)
			for i := 0; i < 200; i++ {
				oid := oids[(w*7+i)%len(oids)]
				if i%3 == 0 {
					s.Put(tx, rec(oid, "C", map[string]datum.Value{"v": datum.Int(int64(i))}))
				} else {
					s.Get(tx, oid)
				}
			}
			s.AbortTxn(tx)
		}(w)
	}
	wg.Wait()
	// All writers aborted; committed state intact.
	count := 0
	s.ScanClass(999, "C", func(r Record) bool {
		if r.Attrs["v"].AsInt() != 0 {
			t.Error("committed value changed by aborted writer")
		}
		count++
		return true
	})
	if count != len(oids) {
		t.Fatalf("scan found %d, want %d", count, len(oids))
	}
}

func TestConcurrentCommitTopGroupFlush(t *testing.T) {
	// Concurrent top-level committers on disjoint objects: every
	// commit must be durable (survive reopen) and the WAL's group
	// flush must not issue more fsyncs than commits.
	dir := t.TempDir()
	tp := newTopo()
	s, err := Open(tp, Options{Dir: dir}) // fsync enabled
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 20
	oids := make([][]datum.OID, writers)
	for w := range oids {
		oids[w] = make([]datum.OID, each)
		for i := range oids[w] {
			oids[w][i] = s.AllocOID()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx := lock.TxnID(1 + w*each + i)
				s.Put(tx, rec(oids[w][i], "C", map[string]datum.Value{
					"w": datum.Int(int64(w)), "i": datum.Int(int64(i))}))
				if err := s.CommitTop(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.TopCommits != writers*each {
		t.Fatalf("TopCommits = %d, want %d", st.TopCommits, writers*each)
	}
	if st.WALFsyncs == 0 || st.WALFsyncs > st.WALSyncRequests {
		t.Fatalf("WALFsyncs = %d, WALSyncRequests = %d", st.WALFsyncs, st.WALSyncRequests)
	}
	s.Close()

	s2, err := Open(newTopo(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			got, ok := s2.Get(999, oids[w][i])
			if !ok || got.Attrs["w"].AsInt() != int64(w) || got.Attrs["i"].AsInt() != int64(i) {
				t.Fatalf("commit by writer %d iter %d lost in recovery", w, i)
			}
		}
	}
}

func TestTornTailAfterGroupFlush(t *testing.T) {
	// Crash with a torn record after a group flush: recovery must
	// yield exactly the committed prefix — every acknowledged commit
	// present, the torn tail discarded.
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 10
	oids := make([][]datum.OID, writers)
	for w := range oids {
		oids[w] = make([]datum.OID, each)
		for i := range oids[w] {
			oids[w][i] = s.AllocOID()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx := lock.TxnID(1 + w*each + i)
				s.Put(tx, rec(oids[w][i], "C", map[string]datum.Value{"v": datum.Int(int64(i))}))
				if err := s.CommitTop(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()

	// Simulate a crash mid-append: a half-written frame at the tail.
	walPath := filepath.Join(dir, "wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad} // claims 256 bytes, has none
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(newTopo(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	count := 0
	s2.ScanClass(999, "C", func(Record) bool { count++; return true })
	if count != writers*each {
		t.Fatalf("recovered %d objects, want exactly the committed prefix %d", count, writers*each)
	}
}

// TestCheckpointConcurrentWithCommits hammers the fuzzy checkpointer:
// commits never pause while checkpoints run, yet after a reopen every
// committed value must be present — whether it arrived via the
// snapshot or via the surviving WAL suffix. This is the deterministic
// (non-sampled) companion to the crash-injection matrix and catches
// any watermark that runs ahead of an in-flight commit.
func TestCheckpointConcurrentWithCommits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	const each = 30
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	var checkpoints int
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			checkpoints++
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := int64(1); v <= each; v++ {
				oid := datum.OID(uint64(w)*each + uint64(v))
				tx := lock.TxnID(uint64(w+1)*1_000_000 + uint64(v))
				s.Put(tx, rec(oid, "W", map[string]datum.Value{"v": datum.Int(v)}))
				if err := s.CommitTop(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-ckptDone
	if checkpoints == 0 {
		t.Fatal("checkpointer never ran")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	s2, err := Open(newTopo(), Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for w := 0; w < writers; w++ {
		for v := int64(1); v <= each; v++ {
			oid := datum.OID(uint64(w)*each + uint64(v))
			got, ok := s2.Get(1, oid)
			if !ok || got.Attrs["v"].AsInt() != v {
				t.Fatalf("writer %d object %d: committed value lost across checkpointed recovery", w, oid)
			}
		}
	}
}
