package main

// risk-conditions: read-heavy condition evaluation and analyst
// queries, in memory, closed loop with two clients. The updater
// modifies one Stock price per transaction; an immediate rule probes
// the Holding.symbol index for the positions of that stock and
// raises an Alert for each one whose value crosses a threshold, and a
// separate rule re-checks an event-free condition over Sector, which
// nothing writes, so the condition evaluator's result cache answers
// it. The analyst alternates a full-extent aggregate over Holding
// and a three-way join Holding x Stock x Sector through Engine.Query.
// The data (100k holdings) is far larger than CPU cache: extent
// scans, MVCC version resolution, the planner and GC do the work; ipc
// and the WAL do none.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/rule"
	"repro/internal/txn"
)

type riskSize struct {
	stocks, sectors, accounts, holdings int
}

var (
	riskFull = riskSize{stocks: 1000, sectors: 16, accounts: 5000, holdings: 100_000}
	riskTiny = riskSize{stocks: 40, sectors: 4, accounts: 50, holdings: 800}
)

// riskRate sets the updater's work: seconds x riskRate price updates,
// about what it finished per second on the engine this benchmark was
// defined on; the analyst queries for as long as the updater runs.
const riskRate = 1200

// riskThreshold is the position value (qty x price) at which the
// exposure rule raises an Alert.
const riskThreshold = 180_000

const (
	riskScanQ = "select count(h) as n, sum(h.qty) as total, min(h.qty) as lo, max(h.qty) as hi from Holding h"
	riskJoinQ = "select count(h) as n, sum(h.qty * c.boost) as w from Holding h, Stock s, Sector c " +
		"where h.symbol = s.symbol and s.sector = c.name"
)

type riskHolding struct {
	owner, stock int
	qty          int64
}

type riskUpdate struct {
	stock int
	price float64
}

type riskInputs struct {
	size        riskSize
	stockSector []int
	stockPrice  []float64
	holdings    []riskHolding
	updates     []riskUpdate
	alerts      []int64 // alerts raised by updates [0, i), prefix sums
	scanWant    [4]int64
	joinWant    [2]int64
	digest      string
}

func genRisk(seed int64, size riskSize, updates int) *riskInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &riskInputs{size: size}
	for i := 0; i < size.stocks; i++ {
		in.stockSector = append(in.stockSector, rng.Intn(size.sectors))
		in.stockPrice = append(in.stockPrice, float64(10+rng.Intn(90)))
	}
	byStock := make([][]int64, size.stocks)
	d := newDigest()
	in.scanWant = [4]int64{int64(size.holdings), 0, 1 << 62, 0}
	for i := 0; i < size.holdings; i++ {
		h := riskHolding{owner: rng.Intn(size.accounts), stock: rng.Intn(size.stocks), qty: int64(1 + rng.Intn(1000))}
		in.holdings = append(in.holdings, h)
		byStock[h.stock] = append(byStock[h.stock], h.qty)
		d.add(h.owner, h.stock, h.qty)
		in.scanWant[1] += h.qty
		in.scanWant[2] = min(in.scanWant[2], h.qty)
		in.scanWant[3] = max(in.scanWant[3], h.qty)
		in.joinWant[0]++
		in.joinWant[1] += h.qty * int64(in.stockSector[h.stock]) // boost of sector k is k
	}
	in.alerts = make([]int64, updates+1)
	for i := 0; i < updates; i++ {
		u := riskUpdate{stock: rng.Intn(size.stocks), price: float64(10 + rng.Intn(19100)/100)}
		in.updates = append(in.updates, u)
		d.add(u.stock, u.price)
		var n int64
		for _, q := range byStock[u.stock] {
			if float64(q)*u.price >= riskThreshold {
				n++
			}
		}
		in.alerts[i+1] = in.alerts[i] + n
	}
	in.digest = d.String()
	return in
}

func sectorName(k int) string  { return fmt.Sprintf("sector%02d", k) }
func stockSymbol(i int) string { return fmt.Sprintf("T%04d", i) }

type riskEnv struct {
	eng     *core.Engine
	stocks  []datum.OID
	checked atomic.Int64 // separate sector-check firings
}

func setupRisk(in *riskInputs) (env *riskEnv, err error) {
	eng, err := core.Open(core.Options{})
	if err != nil {
		return nil, err
	}
	env = &riskEnv{eng: eng}
	defer func() {
		if err != nil {
			eng.Close()
		}
	}()
	classes := []object.Class{
		{Name: "Sector", Attrs: []object.AttrDef{
			{Name: "name", Kind: datum.KindString, Required: true, Indexed: true},
			{Name: "boost", Kind: datum.KindInt, Required: true}}},
		{Name: "Stock", Attrs: []object.AttrDef{
			{Name: "symbol", Kind: datum.KindString, Required: true, Indexed: true},
			{Name: "sector", Kind: datum.KindString, Required: true},
			{Name: "price", Kind: datum.KindFloat},
			{Name: "seq", Kind: datum.KindInt}}},
		{Name: "Holding", Attrs: []object.AttrDef{
			{Name: "owner", Kind: datum.KindString, Required: true, Indexed: true},
			{Name: "symbol", Kind: datum.KindString, Required: true, Indexed: true},
			{Name: "qty", Kind: datum.KindInt, Required: true}}},
		{Name: "Alert", Attrs: []object.AttrDef{
			{Name: "symbol", Kind: datum.KindString},
			{Name: "owner", Kind: datum.KindString},
			{Name: "seq", Kind: datum.KindInt}}},
	}
	err = inTxn(eng, func(tx *txn.Txn) error {
		for _, c := range classes {
			if err := eng.DefineClass(tx, c); err != nil {
				return err
			}
		}
		for k := 0; k < in.size.sectors; k++ {
			if _, err := eng.Create(tx, "Sector", map[string]datum.Value{
				"name": datum.Str(sectorName(k)), "boost": datum.Int(int64(k))}); err != nil {
				return err
			}
		}
		for i := range in.stockSector {
			oid, err := eng.Create(tx, "Stock", map[string]datum.Value{
				"symbol": datum.Str(stockSymbol(i)), "sector": datum.Str(sectorName(in.stockSector[i])),
				"price": datum.Float(in.stockPrice[i]), "seq": datum.Int(-1)})
			if err != nil {
				return err
			}
			env.stocks = append(env.stocks, oid)
		}
		return nil
	})
	if err != nil {
		return env, err
	}
	const batch = 10_000
	for base := 0; base < len(in.holdings); base += batch {
		err := inTxn(eng, func(tx *txn.Txn) error {
			for _, h := range in.holdings[base:min(base+batch, len(in.holdings))] {
				if _, err := eng.Create(tx, "Holding", map[string]datum.Value{
					"owner": datum.Str(fmt.Sprintf("acct%04d", h.owner)), "symbol": datum.Str(stockSymbol(h.stock)),
					"qty": datum.Int(h.qty)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return env, err
		}
	}
	eng.RegisterCall("sector_checked", func(*txn.Txn, map[string]datum.Value) error {
		env.checked.Add(1)
		return nil
	})
	for _, def := range []rule.Def{{
		Name:  "exposure",
		Event: "modify(Stock)",
		Condition: []string{fmt.Sprintf("select s.symbol as sym, h.owner as owner from Stock s, Holding h "+
			"where s = event.oid and h.symbol = s.symbol and h.qty * event.new_price >= %d", riskThreshold)},
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Alert",
			Attrs: map[string]string{"symbol": "sym", "owner": "owner", "seq": "event.new_seq"}}},
		EC: "immediate", CA: "immediate",
	}, {
		Name:      "sector-check",
		Event:     "modify(Stock)",
		Condition: []string{"select count(c) as n from Sector c where c.boost >= 0"},
		Action:    []rule.Step{{Kind: rule.StepCall, Fn: "sector_checked"}},
		EC:        "separate", CA: "immediate",
	}} {
		if _, err := eng.CreateRule(def); err != nil {
			return env, fmt.Errorf("rule %s: %w", def.Name, err)
		}
	}
	return env, nil
}

// inTxn runs fn in a top-level transaction and commits it.
func inTxn(e *core.Engine, fn func(*txn.Txn) error) error {
	tx := e.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// engineQuery runs one query in its own transaction, with a span.
func engineQuery(e *core.Engine, rec *recorder, src string) (*query.Result, time.Duration, error) {
	t0 := time.Now()
	sp := rec.beginAt("engine.query", 0, 0, t0)
	var res *query.Result
	err := inTxn(e, func(tx *txn.Txn) error {
		var err error
		res, err = e.Query(tx, src, nil)
		return err
	})
	rec.end(sp)
	return res, time.Since(t0), err
}

// riskPass is what the two clients observed over a range of updates.
type riskPass struct {
	commit, reaction   latencies // in completion order
	done               []int64   // completion times of the updates
	scan, join         latencies
	updates, failed    int64
	badScans, badJoins int64
}

// runRiskPass runs updates [from, to) on the updater while the analyst
// alternates its two queries, until the updater is done.
func runRiskPass(env *riskEnv, in *riskInputs, rec *recorder, from, to int) *riskPass {
	eng := env.eng
	p := &riskPass{}
	var updaterDone atomic.Bool
	var qfailed int64 // the analyst's; p.failed is the updater's
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer updaterDone.Store(true)
		for i := from; i < to; i++ {
			u := in.updates[i]
			root := rec.begin("update", uint64(i)+1, 0)
			t0 := time.Now()
			tx := eng.Begin()
			sp := rec.begin("engine.modify", root.trace, root.id)
			err := eng.Modify(tx, env.stocks[u.stock], map[string]datum.Value{
				"price": datum.Float(u.price), "seq": datum.Int(int64(i))})
			rec.end(sp)
			t1 := time.Now()
			if err == nil {
				sp = rec.begin("engine.commit", root.trace, root.id)
				err = tx.Commit()
				rec.end(sp)
			} else {
				tx.Abort()
			}
			rec.end(root)
			if err != nil {
				p.failed++
				return
			}
			t2 := time.Now()
			p.done = append(p.done, t2.UnixNano())
			p.reaction = append(p.reaction, t1.Sub(t0))
			p.commit = append(p.commit, t2.Sub(t0))
			p.updates++
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !updaterDone.Load(); i++ {
			src := riskScanQ
			if i%2 == 1 {
				src = riskJoinQ
			}
			res, d, err := engineQuery(eng, rec, src)
			if err != nil {
				qfailed++
				return
			}
			row := res.Rows[0]
			if i%2 == 0 {
				p.scan = append(p.scan, d)
				if [4]int64{row[0].AsInt(), row[1].AsInt(), row[2].AsInt(), row[3].AsInt()} != in.scanWant {
					p.badScans++
				}
			} else {
				p.join = append(p.join, d)
				if [2]int64{row[0].AsInt(), row[1].AsInt()} != in.joinWant {
					p.badJoins++
				}
			}
		}
	}()
	wg.Wait()
	p.failed += qfailed
	return p
}

func runRisk(cfg config, rec *recorder) (*outcome, error) {
	size := riskFull
	if cfg.tiny {
		size = riskTiny
	}
	// A warm-up of a fifth of the window's updates runs first.
	n := max(1, int(cfg.seconds*riskRate))
	warm := max(1, n/5)
	in := genRisk(cfg.seed, size, warm+n)

	env, setupS, err := setUp(func(int) (*riskEnv, error) { return setupRisk(in) },
		func(e *riskEnv) { e.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer env.eng.Close()
	eng := env.eng

	w := runRiskPass(env, in, rec, 0, warm)
	runtime.GC()
	before := readCounters(eng, nil)
	start := time.Now()
	p := runRiskPass(env, in, rec, warm, warm+n)
	eng.Quiesce()
	after := readCounters(eng, nil)
	heap := liveHeapMB()

	var alerts int64
	if res, _, err := engineQuery(eng, nil, "select count(a) as n from Alert a"); err == nil {
		alerts = res.Rows[0][0].AsInt()
	}
	updates, failed := w.updates+p.updates, w.failed+p.failed
	queries := len(w.scan) + len(w.join) + len(p.scan) + len(p.join)
	o := &outcome{inputs: in.digest, attempted: updates + failed + int64(queries), failed: failed}
	o.checks = []check{
		{"operations failed", 0, failed},
		{"alerts raised", in.alerts[updates], alerts},
		{"sector checks fired", updates, env.checked.Load()},
		{"wrong aggregate answers", 0, w.badScans + p.badScans},
		{"wrong join answers", 0, w.badJoins + p.badJoins},
		{"analyst queries of each shape run", 1, int64(min(len(p.scan), len(p.join), 1))},
		{"async rule errors", 0, int64(len(eng.AsyncErrors()))},
	}
	d := delta{before, after}
	ops := float64(p.updates)
	cpu, allocs := d.endToEndCosts(ops)
	o.e2e = map[string]float64{
		"setup_s":           setupS,
		"commit_p50_ms":     p.commit.quantile(0.5),
		"reaction_p50_ms":   p.reaction.quantile(0.5),
		"ops_per_s":         blockRate(start.UnixNano(), p.done, blockSize),
		"scan_query_p50_ms": p.scan.quantile(0.5),
		"join_query_p50_ms": p.join.quantile(0.5),
		"cpu_us_per_op":     cpu,
		"allocs_per_op":     allocs,
		"heap_mb":           heap,
	}
	o.layer = layerMetrics(d, ops, summarize(rec.snapshot()), map[string]float64{
		"storage.write_amp":     0,
		"rule.aborts_per_op":    0,
		"tail.commit_p99_ms":    p.commit.blockQuantile(0.99),
		"tail.reaction_p99_ms":  p.reaction.blockQuantile(0.99),
		"rule.cascade_p50_ms":   0,
		"repl.lag_max_ms":       0,
		"loadgen.late_p99_ms":   0,
		"loadgen.backlog_max":   0,
		"loadgen.sustained_qps": 0,
	})
	o.notes = append(o.notes, fmt.Sprintf("updates=%d alerts=%d scans=%d joins=%d setup=%.2fs",
		updates, alerts, len(p.scan), len(p.join), setupS))
	return o, nil
}
