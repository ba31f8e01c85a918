package storage

// Sharded-store stress test: parallel committers and readers across
// many classes while a checkpointer runs, against a replay-only twin
// store fed the identical transactions. Writers own disjoint OID
// ranges, so the final committed state is schedule-independent and
// both stores must converge to it. Run under -race this doubles as
// the data-race gate for the per-shard locking.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datum"
	"repro/internal/lock"
)

func TestShardedStoreStress(t *testing.T) {
	const (
		writers     = 8
		readers     = 4
		classes     = 4
		oidsPerW    = 16
		commitsPerW = 300
	)
	iters := commitsPerW
	if testing.Short() {
		iters = 60
	}

	topo := newTopo()
	dirA, dirB := t.TempDir(), t.TempDir()
	// Different shard counts on the two stores cross-check that the
	// partitioning is invisible in committed state; b never checkpoints
	// so its recovery is WAL replay alone.
	a, err := Open(topo, Options{Dir: dirA, NoSync: true, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(topo, Options{Dir: dirB, NoSync: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every committed version is shared by the readers below; the audit
	// proves none of them wrote into one.
	verifyA, verifyB := a.AuditImmutable(), b.AuditImmutable()

	// Writer w owns OIDs [w*oidsPerW, (w+1)*oidsPerW); OID o belongs to
	// class fmt.Sprintf("C%d", o%classes). Values encode (writer, seq)
	// so readers can check per-OID monotonicity.
	class := func(oid datum.OID) string { return fmt.Sprintf("C%d", uint64(oid)%classes) }
	var txnSeq atomic.Uint64
	final := make([]map[datum.OID]int64, writers) // per-writer committed values

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Checkpointer: run fuzzy checkpoints continuously on a.
	ckptDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for {
			select {
			case <-stop:
				ckptDone <- nil
				return
			default:
			}
			if _, err := a.Checkpoint(); err != nil {
				ckptDone <- fmt.Errorf("checkpoint %d: %w", n, err)
				return
			}
			n++
		}
	}()

	// Readers: committed-view point reads must be monotone per OID
	// (values only grow), and ScanClass must only surface records of
	// the scanned class.
	readerErr := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := map[datum.OID]int64{}
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				oid := datum.OID(1 + (i*7+r*13)%(writers*oidsPerW))
				if rec, ok := a.Get(0, oid); ok {
					v := rec.Attrs["v"].AsInt()
					if v < last[oid] {
						readerErr <- fmt.Errorf("oid %v went backwards: %d then %d", oid, last[oid], v)
						return
					}
					last[oid] = v
					if got := class(oid); rec.Class != got {
						readerErr <- fmt.Errorf("oid %v: class %q, want %q", oid, rec.Class, got)
						return
					}
				}
				if i%64 == 0 {
					cls := fmt.Sprintf("C%d", i%classes)
					bad := false
					a.ScanClass(0, cls, func(rec Record) bool {
						if rec.Class != cls {
							bad = true
							return false
						}
						return true
					})
					if bad {
						readerErr <- fmt.Errorf("scan of %s surfaced a foreign record", cls)
						return
					}
				}
			}
		}(r)
	}

	// Writers: batches of puts over owned OIDs, mostly committed,
	// sometimes aborted.
	writerErr := make(chan error, writers)
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			mine := make([]datum.OID, oidsPerW)
			for i := range mine {
				mine[i] = datum.OID(1 + w*oidsPerW + i)
			}
			committed := map[datum.OID]int64{}
			for seq := 1; seq <= iters; seq++ {
				tx := lock.TxnID(txnSeq.Add(1))
				batch := map[datum.OID]int64{}
				for n := 1 + seq%3; n > 0; n-- {
					oid := mine[(seq*5+n*3)%len(mine)]
					v := int64(seq)*int64(writers) + int64(w)
					batch[oid] = v
					rec := Record{OID: oid, Class: class(oid),
						Attrs: map[string]datum.Value{"v": datum.Int(v)}}
					a.Put(tx, rec)
					b.Put(tx, rec)
				}
				if seq%7 == 0 {
					a.AbortTxn(tx)
					b.AbortTxn(tx)
					continue
				}
				if err := a.CommitTop(tx); err != nil {
					writerErr <- fmt.Errorf("writer %d commit a: %w", w, err)
					return
				}
				if err := b.CommitTop(tx); err != nil {
					writerErr <- fmt.Errorf("writer %d commit b: %w", w, err)
					return
				}
				for oid, v := range batch {
					committed[oid] = v
				}
			}
			final[w] = committed
		}(w)
	}

	wwg.Wait()
	close(stop)
	wg.Wait()
	close(readerErr)
	close(writerErr)
	for err := range readerErr {
		t.Fatal(err)
	}
	for err := range writerErr {
		t.Fatal(err)
	}
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}

	want := map[datum.OID]int64{}
	for _, m := range final {
		for oid, v := range m {
			want[oid] = v
		}
	}

	// Per-shard invariants on the live store: every chain and extent
	// entry lives in the shard its OID hashes to, and the shard-local
	// extents partition the class extents exactly.
	checkShardInvariants(t, a)
	checkShardInvariants(t, b)
	for _, v := range []func() error{verifyA, verifyB} {
		if err := v(); err != nil {
			t.Fatal(err)
		}
	}

	verify := func(name string, s *Store) {
		t.Helper()
		got := map[datum.OID]int64{}
		for c := 0; c < classes; c++ {
			cls := fmt.Sprintf("C%d", c)
			s.ScanClass(0, cls, func(rec Record) bool {
				got[rec.OID] = rec.Attrs["v"].AsInt()
				return true
			})
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d committed records, want %d", name, len(got), len(want))
		}
		for oid, v := range want {
			if got[oid] != v {
				t.Fatalf("%s: oid %v = %d, want %d", name, oid, got[oid], v)
			}
		}
	}
	verify("a live", a)
	verify("b live", b)

	// Recovery equivalence: reopen both (a from its checkpoint chain +
	// WAL tail, b by replay alone) and require the identical state.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	a, err = Open(topo, Options{Dir: dirA, NoSync: true, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err = Open(topo, Options{Dir: dirB, NoSync: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	verify("a recovered", a)
	verify("b recovered", b)
	checkShardInvariants(t, a)
	checkShardInvariants(t, b)
}

// checkShardInvariants asserts the partitioning is well-formed: every
// object entry is in the shard its OID hashes to, no OID appears in
// two shards, every version chain is strictly LSN-descending with head
// depth at least the chain length, and the extents satisfy
// checkExtentLayout. White-box by design.
func checkShardInvariants(t *testing.T, s *Store) {
	t.Helper()
	seen := map[datum.OID]bool{}
	for i, sh := range s.shards {
		sh.mu.RLock()
		sh.objects.Range(func(k, v any) bool {
			oid := k.(datum.OID)
			if s.shardOf(oid) != sh {
				t.Errorf("shard %d: oid %v hashes elsewhere", i, oid)
			}
			if seen[oid] {
				t.Errorf("oid %v present in two shards", oid)
			}
			seen[oid] = true
			e := v.(*mvEntry)
			n := uint32(0)
			last := uint64(0)
			for mv := e.head.Load(); mv != nil; mv = mv.prev.Load() {
				n++
				if last != 0 && mv.lsn >= last {
					t.Errorf("oid %v: chain not LSN-descending (%d after %d)", oid, mv.lsn, last)
				}
				last = mv.lsn
				if mv.rec.OID != oid {
					t.Errorf("oid %v: chain holds record for %v", oid, mv.rec.OID)
				}
			}
			if hv := e.head.Load(); hv != nil && hv.depth.Load() < n {
				t.Errorf("oid %v: head depth %d below chain length %d", oid, hv.depth.Load(), n)
			}
			return true
		})
		sh.mu.RUnlock()
	}
	checkExtentLayout(t, s)
}
