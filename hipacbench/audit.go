package main

// audit-write: write-heavy and durable, closed loop with two
// committers and one WAL-shipping replica attached in process. Each
// transaction creates an Order and read-modify-writes the Position of
// a Zipf-chosen account under an exclusive lock, so the committers
// contend for the hot accounts. An immediate rule writes an Audit row
// per Order; a deferred rule aborts any transaction that leaves a
// Position negative (the generator's poison orders); a deferred
// event-free condition over Position, which every transaction writes,
// keeps missing the condition evaluator's result cache. Transactions,
// locks, version install and GC, WAL group commit, checkpoints and
// replication do the work; reads are negligible. Orders live in
// class Ticket because "order" is a keyword of the query language.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/rule"
	"repro/internal/txn"
)

type auditSize struct {
	accounts  int
	probeReps int
}

var (
	auditFull = auditSize{accounts: 64, probeReps: 7}
	auditTiny = auditSize{accounts: 8, probeReps: 2}
)

// auditRate sets the work of a run: seconds x auditRate orders, about
// what two committers finished per second on the engine this
// benchmark was defined on. A fixed amount of work keeps the size of
// the final order book, which the probe queries scan, the same on
// both sides of a comparison.
const auditRate = 1500

// auditPoison is the delta of a poison order: larger than any
// position can hold, so the deferred rule always rejects it.
const auditPoison = -(int64(1) << 40)

type auditOrder struct {
	account int
	delta   int64
}

type auditInputs struct {
	initial []int64 // opening position per account
	orders  []auditOrder
	digest  string
}

func genAudit(seed int64, size auditSize, orders int) *auditInputs {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(size.accounts-1))
	in := &auditInputs{initial: make([]int64, size.accounts)}
	d := newDigest()
	for i := 0; i < orders; i++ {
		o := auditOrder{account: int(zipf.Uint64())}
		if rng.Intn(100) < 4 {
			o.delta = auditPoison
		} else {
			o.delta = int64(rng.Intn(100)) - 50
			if o.delta >= 0 {
				o.delta++
			}
		}
		// An opening position covering every ordinary sell keeps any
		// commit order non-negative; only poison orders are rejected.
		if o.delta < 0 && o.delta != auditPoison {
			in.initial[o.account] -= o.delta
		}
		in.orders = append(in.orders, o)
		d.add(o.account, o.delta)
	}
	in.digest = d.String()
	return in
}

func accountName(i int) string { return fmt.Sprintf("acct%03d", i) }

type auditEnv struct {
	eng       *core.Engine
	prim      *repl.Primary
	rep       *repl.Replica
	repObs    *obs.Obs
	positions []datum.OID
}

func (env *auditEnv) close() {
	if env.rep != nil {
		env.rep.Close()
	}
	if env.prim != nil {
		env.prim.Close()
	}
	env.eng.Close()
}

func auditClasses() []object.Class {
	return []object.Class{
		{Name: "Position", Attrs: []object.AttrDef{
			{Name: "account", Kind: datum.KindString, Required: true, Indexed: true},
			{Name: "qty", Kind: datum.KindInt, Required: true}}},
		{Name: "Ticket", Attrs: []object.AttrDef{
			{Name: "account", Kind: datum.KindString, Required: true},
			{Name: "qty", Kind: datum.KindInt, Required: true},
			{Name: "seq", Kind: datum.KindInt, Required: true}}},
		{Name: "Audit", Attrs: []object.AttrDef{
			{Name: "account", Kind: datum.KindString},
			{Name: "seq", Kind: datum.KindInt}}},
	}
}

func auditRules() []rule.Def {
	return []rule.Def{{
		Name:   "audit",
		Event:  "create(Ticket)",
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit", Attrs: map[string]string{"account": "event.new_account", "seq": "event.new_seq"}}},
		EC:     "immediate", CA: "immediate",
	}, {
		Name:      "no-short",
		Event:     "modify(Position)",
		Condition: []string{"select p from Position p where p = event.oid and p.qty < 0"},
		Action:    []rule.Step{{Kind: rule.StepAbort}},
		EC:        "deferred", CA: "immediate",
	}, {
		Name:      "book-check",
		Event:     "modify(Position)",
		Condition: []string{"select count(p) as n from Position p where p.qty >= 0"},
		Action:    []rule.Step{{Kind: rule.StepCall, Fn: "book_checked"}},
		EC:        "deferred", CA: "immediate",
	}}
}

func setupAudit(dir string, in *auditInputs) (env *auditEnv, err error) {
	eng, err := core.Open(durableOptions(filepath.Join(dir, "primary")))
	if err != nil {
		return nil, err
	}
	env = &auditEnv{eng: eng}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	eng.RegisterCall("book_checked", func(*txn.Txn, map[string]datum.Value) error { return nil })
	err = inTxn(eng, func(tx *txn.Txn) error {
		for _, c := range auditClasses() {
			if err := eng.DefineClass(tx, c); err != nil {
				return err
			}
		}
		for i, q := range in.initial {
			oid, err := eng.Create(tx, "Position", map[string]datum.Value{
				"account": datum.Str(accountName(i)), "qty": datum.Int(q)})
			if err != nil {
				return err
			}
			env.positions = append(env.positions, oid)
		}
		return nil
	})
	if err != nil {
		return env, err
	}
	for _, def := range auditRules() {
		if _, err := eng.CreateRule(def); err != nil {
			return env, fmt.Errorf("rule %s: %w", def.Name, err)
		}
	}
	env.prim = repl.NewPrimary(eng.Store, eng.Obs.Metrics())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return env, err
	}
	go env.prim.Serve(ln)
	env.repObs = obs.New(obs.Options{})
	env.rep, err = repl.Open(repl.Options{Dir: filepath.Join(dir, "replica"), PrimaryAddr: ln.Addr().String(),
		CheckpointAfterBytes: checkpointAfterBytes, Obs: env.repObs})
	if err != nil {
		return env, err
	}
	if !env.rep.WaitApplied(eng.Store.WAL().End(), 30*time.Second) {
		return env, fmt.Errorf("replica never bootstrapped: %+v", env.rep.Status())
	}
	return env, nil
}

// auditPass is what the committers observed over a range of orders.
type auditPass struct {
	acked    []int64 // seq of every acknowledged order
	rejected int64   // orders refused by the no-short rule
	failed   int64   // any other error
	wrongRej int64   // a rejected order that was not poison, or the reverse
	commit   latencies
	create   latencies // creating the Order, its immediate audit rule included
	done     []int64   // completion times
}

func (p *auditPass) ops() float64 { return float64(len(p.acked)) + float64(p.rejected) }

// runAuditPass runs orders [from, to) on two committers.
func runAuditPass(env *auditEnv, in *auditInputs, rec *recorder, from, to int) *auditPass {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	passes := make([]auditPass, 2)
	for w := range passes {
		wg.Add(1)
		go func(r *auditPass) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				t0 := time.Now()
				dCreate, err := runOrder(env, rec, in, i)
				t1 := time.Now()
				poison := in.orders[i].delta == auditPoison
				switch {
				case err == nil:
					r.acked = append(r.acked, int64(i))
					if poison {
						r.wrongRej++
					}
				case errors.Is(err, rule.AbortRequested):
					r.rejected++
					if !poison {
						r.wrongRej++
					}
				default:
					r.failed++
					continue
				}
				r.commit = append(r.commit, t1.Sub(t0))
				r.create = append(r.create, dCreate)
				r.done = append(r.done, t1.UnixNano())
			}
		}(&passes[w])
	}
	wg.Wait()
	p := &passes[0]
	p.add(&passes[1])
	return p
}

func (p *auditPass) add(q *auditPass) {
	p.acked = append(p.acked, q.acked...)
	p.rejected += q.rejected
	p.failed += q.failed
	p.wrongRej += q.wrongRej
	p.commit = append(p.commit, q.commit...)
	p.create = append(p.create, q.create...)
	p.done = append(p.done, q.done...)
}

func runAudit(cfg config, rec *recorder) (*outcome, error) {
	size := auditFull
	if cfg.tiny {
		size = auditTiny
	}
	// A warm-up of a fifth of the window's orders runs first.
	n := max(1, int(cfg.seconds*auditRate))
	warm := max(1, n/5)
	in := genAudit(cfg.seed, size, warm+n)

	env, setupS, err := setUp(func(i int) (*auditEnv, error) {
		return setupAudit(filepath.Join(cfg.dir, fmt.Sprintf("audit-%d", i)), in)
	}, (*auditEnv).close)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()
	eng := env.eng

	all := runAuditPass(env, in, rec, 0, warm)
	runtime.GC()
	files := trackChainFiles(eng.Store.Dir())
	before := readCounters(eng, env.repObs)
	monitor := startMonitor(func() []float64 {
		files.sample()
		return []float64{float64(env.rep.Status().LagNanos)}
	})
	start := time.Now()
	p := runAuditPass(env, in, rec, warm, warm+n)
	eng.Quiesce()
	// The window closes once the replica has caught up with the
	// primary's durable end.
	sp := rec.begin("replica.catchup", 0, 0)
	caughtUp := env.rep.WaitApplied(eng.Store.WAL().End(), 30*time.Second)
	rec.end(sp)
	lag := monitor.stop()
	after := readCounters(eng, env.repObs)
	heap := liveHeapMB()
	all.add(p)

	o := &outcome{inputs: in.digest, attempted: int64(all.ops()) + all.failed, failed: all.failed}
	scan, join, probeChecks, err := auditProbe(eng, rec, in, all.acked, size.probeReps)
	if err != nil {
		return nil, err
	}
	o.checks = append(auditChecks(env, in, all, caughtUp), probeChecks...)

	// Every acknowledged order survives closing and reopening the
	// data directory.
	env.close()
	closed = true
	o.checks = append(o.checks, reopenCheck(eng.Store.Dir(), all.acked)...)

	d := delta{before, after}
	ops := p.ops()
	cpu, allocs := d.endToEndCosts(ops)
	o.e2e = map[string]float64{
		"setup_s":           setupS,
		"commit_p50_ms":     p.commit.quantile(0.5),
		"reaction_p50_ms":   p.create.quantile(0.5),
		"ops_per_s":         blockRate(start.UnixNano(), p.done, blockSize),
		"scan_query_p50_ms": scan.quantile(0.5),
		"join_query_p50_ms": join.quantile(0.5),
		"cpu_us_per_op":     cpu,
		"allocs_per_op":     allocs,
		"heap_mb":           heap,
	}
	var lagMax float64
	for _, s := range lag {
		lagMax = max(lagMax, s[0]/1e6)
	}
	o.layer = layerMetrics(d, ops, summarize(rec.snapshot()), map[string]float64{
		"storage.write_amp":     writeAmp(d, files.written(), 32*float64(len(p.acked))),
		"rule.aborts_per_op":    ratio(float64(p.rejected), ops),
		"tail.commit_p99_ms":    p.commit.blockQuantile(0.99),
		"tail.reaction_p99_ms":  p.create.blockQuantile(0.99),
		"rule.cascade_p50_ms":   0,
		"repl.lag_max_ms":       lagMax,
		"loadgen.late_p99_ms":   0,
		"loadgen.backlog_max":   0,
		"loadgen.sustained_qps": 0,
	})
	o.notes = append(o.notes, fmt.Sprintf("orders=%d acked=%d rejected=%d checkpoints=%d (full %d) setup=%.3fs",
		int64(all.ops()), len(all.acked), all.rejected, after.st.Store.Checkpoints-before.st.Store.Checkpoints,
		after.st.Store.FullCheckpoints-before.st.Store.FullCheckpoints, setupS))
	return o, nil
}

// runOrder runs order i's transaction and returns how long creating
// the Order took (the immediate audit rule runs inside it).
func runOrder(env *auditEnv, rec *recorder, in *auditInputs, i int) (time.Duration, error) {
	eng := env.eng
	o := in.orders[i]
	root := rec.begin("order", uint64(i)+1, 0)
	defer rec.end(root)
	tx := eng.Begin()
	t0 := time.Now()
	sp := rec.beginAt("engine.create", root.trace, root.id, t0)
	_, err := eng.Create(tx, "Ticket", map[string]datum.Value{
		"account": datum.Str(accountName(o.account)), "qty": datum.Int(o.delta), "seq": datum.Int(int64(i))})
	rec.end(sp)
	dCreate := time.Since(t0)
	if err != nil {
		tx.Abort()
		return dCreate, err
	}
	oid := env.positions[o.account]
	sp = rec.begin("engine.get_for_update", root.trace, root.id)
	pos, err := eng.GetForUpdate(tx, oid)
	rec.end(sp)
	if err != nil {
		tx.Abort()
		return dCreate, err
	}
	sp = rec.begin("engine.modify", root.trace, root.id)
	err = eng.Modify(tx, oid, map[string]datum.Value{"qty": datum.Int(pos.Attrs["qty"].AsInt() + o.delta)})
	rec.end(sp)
	if err != nil {
		tx.Abort()
		return dCreate, err
	}
	sp = rec.begin("engine.commit", root.trace, root.id)
	err = tx.Commit()
	rec.end(sp)
	return dCreate, err
}

func auditChecks(env *auditEnv, in *auditInputs, res *auditPass, caughtUp bool) []check {
	var poison int64
	for i := 0; i < len(res.acked)+int(res.rejected+res.failed); i++ {
		if in.orders[i].delta == auditPoison {
			poison++
		}
	}
	want := append([]int64(nil), in.initial...)
	for _, i := range res.acked {
		o := in.orders[i]
		want[o.account] += o.delta
	}
	eng := env.eng
	var wrongPos, negative, audits, orders int64 = int64(len(want)), 0, -1, -1
	if r, _, err := engineQuery(eng, nil, "select p.account, p.qty from Position p"); err == nil {
		got := map[string]int64{}
		for _, row := range r.Rows {
			got[row[0].AsString()] = row[1].AsInt()
			if row[1].AsInt() < 0 {
				negative++
			}
		}
		wrongPos = 0
		for a, w := range want {
			if got[accountName(a)] != w {
				wrongPos++
			}
		}
	}
	if r, _, err := engineQuery(eng, nil, "select count(a) as n from Audit a"); err == nil {
		audits = r.Rows[0][0].AsInt()
	}
	if r, _, err := engineQuery(eng, nil, "select count(o) as n from Ticket o"); err == nil {
		orders = r.Rows[0][0].AsInt()
	}
	var replicaOrders int64 = -1
	if r, _, err := env.rep.Query("select count(o) as n from Ticket o", nil); err == nil {
		replicaOrders = r.Rows[0][0].AsInt()
	}
	caught := int64(0)
	if caughtUp {
		caught = 1
	}
	return []check{
		{"orders failed with an unexpected error", 0, res.failed},
		{"poison orders rejected", poison, res.rejected},
		{"rejections of the wrong order", 0, res.wrongRej},
		{"orders committed", int64(len(res.acked)), orders},
		{"audit rows", int64(len(res.acked)), audits},
		{"positions differing from opening plus committed deltas", 0, wrongPos},
		{"negative positions", 0, negative},
		{"replica reached the primary's durable end", 1, caught},
		{"orders on the replica", int64(len(res.acked)), replicaOrders},
		{"async rule errors", 0, int64(len(eng.AsyncErrors()))},
	}
}

// auditProbe runs two analyst queries over the final book: an
// aggregate over every Order and a join of Order with Position.
func auditProbe(eng *core.Engine, rec *recorder, in *auditInputs, acked []int64, reps int) (scan, join latencies, checks []check, err error) {
	var wantQty int64
	for _, i := range acked {
		wantQty += in.orders[i].delta
	}
	want := [2]int64{int64(len(acked)), wantQty}
	var bad int64
	for r := 0; r < reps; r++ {
		for k, src := range []string{
			"select count(o) as n, sum(o.qty) as q from Ticket o",
			"select count(o) as n, sum(o.qty) as q from Ticket o, Position p where o.account = p.account",
		} {
			runtime.GC() // as in saaProbe
			res, d, err := engineQuery(eng, rec, src)
			if err != nil {
				return nil, nil, nil, err
			}
			if [2]int64{res.Rows[0][0].AsInt(), res.Rows[0][1].AsInt()} != want {
				bad++
			}
			if k == 0 {
				scan = append(scan, d)
			} else {
				join = append(join, d)
			}
		}
	}
	return scan, join, []check{{"wrong order-book answers", 0, bad}}, nil
}

// reopenCheck reopens the primary's data directory and counts the
// acknowledged orders that recovery lost.
func reopenCheck(dir string, acked []int64) []check {
	lost := int64(len(acked))
	eng, err := core.Open(durableOptions(dir))
	if err != nil {
		return []check{{"reopen the data directory: " + err.Error(), 0, 1}}
	}
	defer eng.Close()
	if r, _, err := engineQuery(eng, nil, "select o.seq from Ticket o"); err == nil {
		have := make(map[int64]bool, len(r.Rows))
		for _, row := range r.Rows {
			have[row[0].AsInt()] = true
		}
		lost = 0
		for _, i := range acked {
			if !have[i] {
				lost++
			}
		}
	}
	return []check{{"acknowledged orders lost on reopen", 0, lost}}
}
