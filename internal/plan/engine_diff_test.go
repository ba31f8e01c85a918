// Engine-level differential test: every plan against the tree-walk
// oracle on a real MVCC store, at a snapshot LSN pinned while
// concurrent committers keep mutating the underlying classes. Lives
// in an external test package because it drives the full engine,
// which itself links against the planner.
package plan_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/plan"
	"repro/internal/query"
)

// diffEngine opens an engine with the store's immutability audit
// armed: at cleanup, after the test's committers and queries are done,
// every committed version must still hold exactly what was installed —
// plan execution reads the stored attribute maps without copying them.
func diffEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	verify := e.Objects.Store().AuditImmutable()
	t.Cleanup(func() {
		if err := verify(); err != nil {
			t.Error(err)
		}
		e.Close()
	})
	tx := e.Begin()
	for _, c := range []object.Class{
		{Name: "Stock", Attrs: []object.AttrDef{
			{Name: "symbol", Kind: datum.KindString, Indexed: true},
			{Name: "price", Kind: datum.KindFloat, Indexed: true},
		}},
		{Name: "Holding", Attrs: []object.AttrDef{
			{Name: "owner", Kind: datum.KindString, Indexed: true},
			{Name: "symbol", Kind: datum.KindString},
			{Name: "qty", Kind: datum.KindInt},
		}},
	} {
		if err := e.DefineClass(tx, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDifferentialUnderConcurrentCommitters pins a snapshot reader
// per round and checks that the oracle and every enumerated plan see
// the same rows through it, while writer goroutines commit against
// the same classes. Run it under -race: the point is that plan
// execution shares no unsynchronized state with committers.
func TestDifferentialUnderConcurrentCommitters(t *testing.T) {
	e := diffEngine(t)

	// Seed data: a few stocks, holdings spread over owners.
	seed := e.Begin()
	for i := 0; i < 8; i++ {
		if _, err := e.Create(seed, "Stock", map[string]datum.Value{
			"symbol": datum.Str(fmt.Sprintf("SYM%d", i)),
			"price":  datum.Float(float64(10 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if _, err := e.Create(seed, "Holding", map[string]datum.Value{
			"owner":  datum.Str(fmt.Sprintf("owner%d", i%6)),
			"symbol": datum.Str(fmt.Sprintf("SYM%d", i%8)),
			"qty":    datum.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// Committers: each worker owns a disjoint set of holdings it
	// creates, modifies, and deletes in small transactions.
	var stop atomic.Bool
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 42))
			var mine []datum.OID
			for !stop.Load() {
				tx := e.Begin()
				switch {
				case len(mine) < 5 || rng.Intn(3) == 0:
					oid, err := e.Create(tx, "Holding", map[string]datum.Value{
						"owner":  datum.Str(fmt.Sprintf("owner%d", rng.Intn(6))),
						"symbol": datum.Str(fmt.Sprintf("SYM%d", rng.Intn(8))),
						"qty":    datum.Int(int64(rng.Intn(100))),
					})
					if err == nil {
						mine = append(mine, oid)
					}
				case rng.Intn(2) == 0:
					e.Modify(tx, mine[rng.Intn(len(mine))], map[string]datum.Value{
						"qty": datum.Int(int64(rng.Intn(100))),
					})
				default:
					i := rng.Intn(len(mine))
					if err := e.Delete(tx, mine[i]); err == nil {
						mine = append(mine[:i], mine[i+1:]...)
					}
				}
				tx.Commit()
			}
		}(w)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	queries := []string{
		"select h from Holding h where h.owner = event.owner",
		"select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner",
		"select s.symbol, h.qty from Stock s, Holding h where s.symbol = h.symbol and h.qty >= 10 order by h.qty desc limit 5",
		"select count(*) as n, sum(h.qty) as total from Holding h, Stock s where h.symbol = s.symbol and s.price > event.floor",
	}

	const rounds = 60
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round) * 104729))
		args := map[string]datum.Value{
			"owner": datum.Str(fmt.Sprintf("owner%d", rng.Intn(6))),
			"floor": datum.Float(float64(9 + rng.Intn(10))),
		}
		src := queries[round%len(queries)]
		q := query.MustParse(src)

		tx := e.Begin()
		sr := e.Objects.SnapshotReader(tx)
		lsn := sr.SnapshotLSN()

		want, err := query.Eval(q, sr, args)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		// The forced-parallel builds remove the cardinality floor so
		// every round also runs shard-parallel scans, partitioned hash
		// joins, and parallel aggregation against the live store —
		// byte-equality vs. the serial plans and the oracle, under
		// -race.
		plans := append(
			[]*plan.Plan{
				plan.Build(q, sr, args, plan.Options{}),
				plan.Build(q, sr, args, plan.Options{DisableIndex: true}),
				plan.Build(q, sr, args, plan.Options{DisableHash: true}),
				plan.Build(q, nil, args, plan.Options{ForceOrder: true}),
				plan.Build(q, sr, args, plan.Options{Parallelism: 4, ParallelThreshold: -1}),
				plan.Build(q, sr, args, plan.Options{Parallelism: 8, ParallelThreshold: -1, DisableIndex: true}),
				plan.Build(q, sr, args, plan.Options{Parallelism: 2, ParallelThreshold: -1, DisableHash: true}),
			},
			plan.Enumerate(q, sr, args, plan.Options{})...)
		for i, p := range plans {
			got, err := p.Execute(sr, args)
			if err != nil {
				t.Fatalf("round %d plan %d: %v\n%s", round, i, err, p.Explain())
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d plan %d diverges at snapshot LSN %d\nquery: %s\nwant: %+v\ngot:  %+v\n%s",
					round, i, lsn, src, want, got, p.Explain())
			}
		}
		if got := sr.SnapshotLSN(); got != lsn {
			t.Fatalf("snapshot moved during evaluation: %d -> %d", lsn, got)
		}
		sr.Close()
		tx.Commit()
	}
}

// TestParallelScanPinnedLSNUnderCommitters races committer goroutines
// against forced-parallel unselective scans and joins. Every shard
// worker reads at the reader's pinned snapshot LSN; the test asserts
// the LSN is immobile across the whole fan-out and that the parallel
// result equals the serial result at the same pin — i.e. concurrent
// commits are invisible to every worker, not just the gather node.
func TestParallelScanPinnedLSNUnderCommitters(t *testing.T) {
	e := diffEngine(t)
	seed := e.Begin()
	for i := 0; i < 300; i++ {
		if _, err := e.Create(seed, "Holding", map[string]datum.Value{
			"owner":  datum.Str(fmt.Sprintf("owner%d", i%6)),
			"symbol": datum.Str(fmt.Sprintf("SYM%d", i%8)),
			"qty":    datum.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := e.Create(seed, "Stock", map[string]datum.Value{
			"symbol": datum.Str(fmt.Sprintf("SYM%d", i)),
			"price":  datum.Float(float64(10 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 99))
			var mine []datum.OID
			for !stop.Load() {
				tx := e.Begin()
				// Bounded churn: grow to ~20 rows, then replace —
				// the extent stays small while its version chains and
				// membership keep flipping under the scan workers.
				if len(mine) < 20 {
					oid, err := e.Create(tx, "Holding", map[string]datum.Value{
						"owner":  datum.Str(fmt.Sprintf("owner%d", rng.Intn(6))),
						"symbol": datum.Str(fmt.Sprintf("SYM%d", rng.Intn(8))),
						"qty":    datum.Int(int64(rng.Intn(1000))),
					})
					if err == nil {
						mine = append(mine, oid)
					}
				} else {
					i := rng.Intn(len(mine))
					if err := e.Delete(tx, mine[i]); err == nil {
						mine = append(mine[:i], mine[i+1:]...)
					}
				}
				tx.Commit()
			}
		}(w)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	queries := []string{
		"select h from Holding h where h.qty >= 0",
		"select s.symbol, h.qty from Stock s, Holding h where s.symbol = h.symbol",
		"select count(*) as n, sum(h.qty) as total from Holding h",
	}
	for round := 0; round < 30; round++ {
		src := queries[round%len(queries)]
		q := query.MustParse(src)
		tx := e.Begin()
		sr := e.Objects.SnapshotReader(tx)
		lsn := sr.SnapshotLSN()

		serial, err := plan.Build(q, sr, nil, plan.Options{Parallelism: 1}).Execute(sr, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := plan.Build(q, sr, nil, plan.Options{Parallelism: 8, ParallelThreshold: -1})
		par, err := p.Execute(sr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("round %d: parallel result diverges from serial at pinned LSN %d\nquery: %s\n%s",
				round, lsn, src, p.Explain())
		}
		if got := sr.SnapshotLSN(); got != lsn {
			t.Fatalf("round %d: pinned snapshot LSN moved across the fan-out: %d -> %d", round, lsn, got)
		}
		sr.Close()
		tx.Commit()
	}
}

// TestEngineQueryAndExplain drives the engine's public Query/Explain
// paths with the planner enabled (the default) and with the tree-walk
// flag, asserting they agree.
func TestEngineQueryAndExplain(t *testing.T) {
	e := diffEngine(t)
	tw, err := core.Open(core.Options{TreeWalkQueries: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tw.Close() })

	load := func(eng *core.Engine) {
		tx := eng.Begin()
		if _, err := eng.Create(tx, "Stock", map[string]datum.Value{
			"symbol": datum.Str("XRX"), "price": datum.Float(48),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Create(tx, "Holding", map[string]datum.Value{
			"owner": datum.Str("kim"), "symbol": datum.Str("XRX"), "qty": datum.Int(3),
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// The tree-walk engine needs its own schema.
	twx := tw.Begin()
	for _, c := range []object.Class{
		{Name: "Stock", Attrs: []object.AttrDef{
			{Name: "symbol", Kind: datum.KindString, Indexed: true},
			{Name: "price", Kind: datum.KindFloat, Indexed: true},
		}},
		{Name: "Holding", Attrs: []object.AttrDef{
			{Name: "owner", Kind: datum.KindString, Indexed: true},
			{Name: "symbol", Kind: datum.KindString},
			{Name: "qty", Kind: datum.KindInt},
		}},
	} {
		if err := tw.DefineClass(twx, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := twx.Commit(); err != nil {
		t.Fatal(err)
	}
	load(e)
	load(tw)

	const src = "select s.symbol, h.qty from Stock s, Holding h where s.symbol = h.symbol and h.owner = 'kim'"
	tx := e.Begin()
	defer tx.Commit()
	got, err := e.Query(tx, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	twTx := tw.Begin()
	defer twTx.Commit()
	want, err := tw.Query(twTx, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("planner engine and tree-walk engine disagree:\nwant %+v\ngot  %+v", want.Rows, got.Rows)
	}

	text, err := e.Explain(tx, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"plan (cost=", "Holding", "Stock"} {
		if !strings.Contains(text, needle) {
			t.Fatalf("explain missing %q:\n%s", needle, text)
		}
	}
}
