package storage

// Layout tests for the read path: a test-only dump of every published
// class extent plus a checker of its invariants, and directed tests of
// the cases that make an extent copy (out-of-order inserts, removals)
// or that rebuild from one (RegisterIndex). The immutability audit's
// own self-test lives here too.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/datum"
	"repro/internal/lock"
)

// extentDump is one class's extent in one shard, as published.
type extentDump struct {
	shard int
	class string
	ents  []*mvEntry
}

// dumpExtents returns every shard's published extents, in shard order
// and class-name order within a shard. Callers that need a stable view
// hold the shard locks.
func (s *Store) dumpExtents() []extentDump {
	var out []extentDump
	for i, sh := range s.shards {
		var classes []string
		sh.extents.Range(func(k, _ any) bool {
			classes = append(classes, k.(string))
			return true
		})
		sort.Strings(classes)
		for _, c := range classes {
			out = append(out, extentDump{shard: i, class: c, ents: sh.extentOf(c).entries()})
		}
	}
	return out
}

// checkExtentLayout asserts the extent layout invariants with every
// shard frozen: each extent is strictly OID-ascending (so free of
// duplicates), each element lives in the shard its OID hashes to and
// is the very *mvEntry the objects map holds for that OID, every
// entry is in exactly the extents its membership list names, and each
// class's member count equals the live counter ExtentEstimate reads.
func checkExtentLayout(t *testing.T, s *Store) {
	t.Helper()
	for _, sh := range s.shards {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	}
	count := map[string]int64{}
	for _, d := range s.dumpExtents() {
		sh := s.shards[d.shard]
		for i, e := range d.ents {
			if i > 0 && d.ents[i-1].oid >= e.oid {
				t.Errorf("shard %d extent %q: oid %v after %v", d.shard, d.class, e.oid, d.ents[i-1].oid)
			}
			if s.shardOf(e.oid) != sh {
				t.Errorf("shard %d extent %q: oid %v hashes elsewhere", d.shard, d.class, e.oid)
			}
			if v, ok := sh.objects.Load(e.oid); !ok || v.(*mvEntry) != e {
				t.Errorf("shard %d extent %q: oid %v is not the entry the objects map holds", d.shard, d.class, e.oid)
			}
			if !e.inExtent(d.class) {
				t.Errorf("shard %d extent %q: oid %v does not list the class", d.shard, d.class, e.oid)
			}
		}
		count[d.class] += int64(len(d.ents))
	}
	for i, sh := range s.shards {
		sh.objects.Range(func(_, v any) bool {
			e := v.(*mvEntry)
			for _, c := range e.classes {
				x := sh.extentOf(c)
				var ents []*mvEntry
				if x != nil {
					ents = x.entries()
				}
				j := sort.Search(len(ents), func(j int) bool { return ents[j].oid >= e.oid })
				if j == len(ents) || ents[j] != e {
					t.Errorf("shard %d: oid %v lists class %q but is missing from its extent", i, e.oid, c)
				}
			}
			return true
		})
	}
	s.extentN.Range(func(k, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != count[k.(string)] {
			t.Errorf("class %q: live counter %d, extents hold %d", k, n, count[k.(string)])
		}
		delete(count, k.(string))
		return true
	})
	for c, n := range count {
		t.Errorf("class %q: extents hold %d members but no counter exists", c, n)
	}
}

// scanOIDs returns the OIDs ScanClass visits for class, in visit order.
func scanOIDs(s *Store, tx lock.TxnID, class string) []datum.OID {
	var out []datum.OID
	s.ScanClass(tx, class, func(r Record) bool {
		out = append(out, r.OID)
		return true
	})
	return out
}

// TestOutOfOrderCommitsKeepExtentOrdered interleaves creates whose
// commit order runs against OID order, within one shard and across
// shards, with an aborted create and a deletion, and checks the
// layout after every step. Each out-of-order insert and each removal
// takes the copy path; the rest are in-place appends.
func TestOutOfOrderCommitsKeepExtentOrdered(t *testing.T) {
	s, _ := Open(newTopo(), Options{Shards: 2})
	var oids []datum.OID
	for i := 0; i < 8; i++ {
		oids = append(oids, s.AllocOID())
	}
	put := func(tx lock.TxnID, oid datum.OID) {
		s.Put(tx, rec(oid, "C", map[string]datum.Value{"v": datum.Int(int64(oid))}))
	}
	// Commit the highest OIDs first, then fill in below them.
	for i, j := range []int{7, 6, 3, 5, 0, 4} {
		tx := lock.TxnID(i + 1)
		put(tx, oids[j])
		if err := s.CommitTop(tx); err != nil {
			t.Fatal(err)
		}
		checkExtentLayout(t, s)
	}
	// An uncommitted create between committed members, then its abort.
	put(20, oids[2])
	checkExtentLayout(t, s)
	if got := scanOIDs(s, 20, "C"); len(got) != 7 {
		t.Fatalf("own uncommitted create not scanned: %v", got)
	}
	s.AbortTxn(20)
	checkExtentLayout(t, s)
	// A deletion, whose entry the next GC sweep removes.
	s.Put(21, Record{OID: oids[5], Class: "C", Deleted: true})
	if err := s.CommitTop(21); err != nil {
		t.Fatal(err)
	}
	checkExtentLayout(t, s)
	if res := s.VersionGC(); res.Removed != 1 {
		t.Fatalf("GC removed %d chains, want the tombstoned one", res.Removed)
	}
	checkExtentLayout(t, s)
	put(22, oids[1])
	if err := s.CommitTop(22); err != nil {
		t.Fatal(err)
	}
	checkExtentLayout(t, s)

	want := []datum.OID{oids[0], oids[1], oids[3], oids[4], oids[6], oids[7]}
	if got := scanOIDs(s, 0, "C"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan order %v, want %v", got, want)
	}
	if got := s.ExtentEstimate("C"); got != len(want) {
		t.Fatalf("ExtentEstimate %d, want %d", got, len(want))
	}
}

// TestRegisterIndexOnPopulatedClassLayout builds an index over a class
// that already has multi-version chains, a deleted member and members
// in every shard, then checks the probe results and the layout.
func TestRegisterIndexOnPopulatedClassLayout(t *testing.T) {
	s, _ := ephemeral(t)
	snap := s.AcquireSnapshot() // keeps old versions reachable
	defer snap.Release()
	var oids []datum.OID
	tx := lock.TxnID(1)
	for i := 0; i < 40; i++ {
		oid := s.AllocOID()
		oids = append(oids, oid)
		commitOne(t, s, tx, rec(oid, "P", map[string]datum.Value{"k": datum.Int(int64(i % 5))}))
		tx++
	}
	for _, oid := range oids[:10] {
		commitOne(t, s, tx, rec(oid, "P", map[string]datum.Value{"k": datum.Int(9)}))
		tx++
	}
	commitOne(t, s, tx, Record{OID: oids[39], Class: "P", Deleted: true})
	s.RegisterIndex("P", "k")
	checkExtentLayout(t, s)
	nine := btree.Include(datum.Int(9).Key())
	if got := s.IndexCandidates(0, "P", "k", nine, nine); len(got) != 10 {
		t.Fatalf("index on populated class: %d candidates for k=9, want 10", len(got))
	}
	// Old versions stay indexed for the pinned snapshot.
	zero := btree.Include(datum.Int(0).Key())
	if got := s.IndexCandidates(0, "P", "k", zero, zero); len(got) != 8 {
		t.Fatalf("index on populated class: %d candidates for k=0, want 8", len(got))
	}
}

// TestExtentConcurrentOrderedScans races creators, deleters and
// aborters on one class against readers that check every scan —
// merged and per shard — visits strictly ascending OIDs. Creators
// commit in an order unrelated to OID order, so extents take both the
// append and the copy path while readers hold older layouts. Run it
// under -race: it is the check on the publication protocol.
func TestExtentConcurrentOrderedScans(t *testing.T) {
	s, _ := ephemeral(t)
	var txSeq atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				var last datum.OID
				s.ScanClass(0, "X", func(rec Record) bool {
					if rec.OID <= last {
						errs <- fmt.Errorf("merged scan: oid %v after %v", rec.OID, last)
						stop.Store(true)
						return false
					}
					last = rec.OID
					return true
				})
				si := r % s.ShardCount()
				last = 0
				s.ScanClassShardAt(0, si, "X", s.PublishedLSN(), func(rec Record) bool {
					if rec.OID <= last {
						errs <- fmt.Errorf("shard %d scan: oid %v after %v", si, rec.OID, last)
						stop.Store(true)
						return false
					}
					last = rec.OID
					return true
				})
			}
		}(r)
	}
	const writers = 3
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var pending, live []datum.OID
			for i := 0; i < 300; i++ {
				// Allocate ahead so commits land out of OID order.
				pending = append(pending, s.AllocOID())
				if len(pending) < 3 {
					continue
				}
				k := rng.Intn(len(pending))
				oid := pending[k]
				pending = append(pending[:k], pending[k+1:]...)
				tx := lock.TxnID(txSeq.Add(1))
				s.Put(tx, rec(oid, "X", map[string]datum.Value{"v": datum.Int(int64(i))}))
				if rng.Intn(5) == 0 {
					s.AbortTxn(tx)
					continue
				}
				if err := s.CommitTop(tx); err != nil {
					errs <- err
					return
				}
				live = append(live, oid)
				if len(live) > 4 && rng.Intn(3) == 0 {
					k := rng.Intn(len(live))
					tx := lock.TxnID(txSeq.Add(1))
					s.Put(tx, Record{OID: live[k], Class: "X", Deleted: true})
					if err := s.CommitTop(tx); err != nil {
						errs <- err
						return
					}
					live = append(live[:k], live[k+1:]...)
				}
			}
		}(w)
	}
	wwg.Wait()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.VersionGC()
	checkExtentLayout(t, s)
}

// TestImmutabilityAuditCatchesWriter is the audit's self-test: a
// reader that writes into a record the store handed out must be
// reported, and an untouched store must pass.
func TestImmutabilityAuditCatchesWriter(t *testing.T) {
	s, _ := ephemeral(t)
	oid := s.AllocOID()
	commitOne(t, s, 1, rec(oid, "F", map[string]datum.Value{"v": datum.Int(1)}))
	verify := s.AuditImmutable()
	commitOne(t, s, 2, rec(oid, "F", map[string]datum.Value{"v": datum.Int(2)}))
	if err := verify(); err != nil {
		t.Fatalf("clean store reported: %v", err)
	}
	got, _ := s.Get(0, oid)
	got.Attrs["v"] = datum.Int(99) // the bug the audit exists to catch
	if err := verify(); err == nil {
		t.Fatal("audit missed a write into a shared committed record")
	}
}
