package main

// saa-feed: the paper's own application (Fig. 4.2) driven open loop
// through ipc. A seeded wire-service tape of price quotes arrives on
// a fixed schedule whether or not the DBMS keeps up; two Ticker
// workers, one per connection, each run begin/modify/commit per
// quote on its Stock row. Connection A also serves the Display
// program's operations, connection B the Trader's. Rule fan-out,
// separate-coupled firings, the composite-event runtime and the
// application callbacks do most of the work; reads are point lookups
// over a 512-row hot set that fits in CPU cache.

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/feed"
	"repro/internal/object"
	"repro/internal/rule"
	"repro/internal/saa"
	"repro/internal/server"
)

// The flush policy shared by the durable workloads: fsync per commit,
// the default group commit, and the size-triggered checkpointer.
const checkpointAfterBytes = 256 << 10

func durableOptions(dir string) core.Options {
	return core.Options{Dir: dir, CheckpointAfterBytes: checkpointAfterBytes}
}

// saaLadder is the fixed ladder of offered quote rates (quotes/s).
// The engine this benchmark was defined on completed 1300 to 3100
// quotes/s on two connections, depending on how busy its shared host
// was; the ladder spans from a third of the low figure to half again
// the high one, so the top rung overloads the pipeline either way. Latencies are
// reported at saaNominal; sustained_qps is the highest rung that
// meets saaLimit without a growing backlog; ops_per_s is the
// completion rate on the top rung.
var saaLadder = []float64{400, 800, 1600, 2400, 3200, 4800}

const (
	saaNominal = 0 // index into saaLadder
	saaLimit   = 10 * time.Millisecond
	saaBurst   = 8 // tumbling count window per stock
	opBurst    = "display_burst"
)

type saaSize struct {
	symbols, orders int
	ladder          []float64
	nominal         int
	probeReps       int
}

var (
	saaFull = saaSize{symbols: 512, orders: 16, ladder: saaLadder, nominal: saaNominal, probeReps: 100}
	saaTiny = saaSize{symbols: 16, orders: 4, ladder: []float64{100, 200, 400}, nominal: 0, probeReps: 3}
)

// saaOrder is one standing BuyAt order.
type saaOrder struct {
	owner, symbol string
	qty           int64
	limit         float64
}

// saaInputs is everything the generator derives from the seed.
type saaInputs struct {
	symbols  []string
	symIndex map[string]int
	orders   []saaOrder
	tape     []feed.Quote
	warmup   saaPhase // at the nominal rate, before the measured window
	phases   []saaPhase
	trade    []int // per quote: index of the order it fills, or -1
	digest   string
}

// saaPhase is one rung of the ladder: quotes [first, first+n) offered
// at rate per second.
type saaPhase struct {
	rate     float64
	first, n int
}

func genSAA(seed int64, size saaSize, seconds float64) *saaInputs {
	in := &saaInputs{symIndex: map[string]int{}}
	for i := 0; i < size.symbols; i++ {
		s := fmt.Sprintf("S%03d", i)
		in.symbols = append(in.symbols, s)
		in.symIndex[s] = i
	}
	rng := rand.New(rand.NewSource(seed))
	for i, p := range rng.Perm(size.symbols)[:size.orders] {
		in.orders = append(in.orders, saaOrder{
			owner:  fmt.Sprintf("client%02d", i),
			symbol: in.symbols[p],
			qty:    int64(100 * (1 + rng.Intn(9))),
			limit:  math.Round((48+4*rng.Float64())*100) / 100,
		})
	}
	// A warm-up at the nominal rate takes 15% of the window's length
	// before it. In the window the nominal rung gets 40% of the time,
	// the top rung 15%, the others share the rest.
	rate := size.ladder[size.nominal]
	in.warmup = saaPhase{rate: rate, n: max(1, int(rate*seconds*0.15))}
	total := in.warmup.n
	top := len(size.ladder) - 1
	for i, rate := range size.ladder {
		share := 0.45 / float64(len(size.ladder)-2)
		switch i {
		case size.nominal:
			share = 0.4
		case top:
			share = 0.15
		}
		n := int(rate * seconds * share)
		if n < 1 {
			n = 1
		}
		in.phases = append(in.phases, saaPhase{rate: rate, first: total, n: n})
		total += n
	}
	in.tape = feed.New(feed.Config{Seed: seed, Symbols: in.symbols}).Take(total)
	orderOf := map[string]int{}
	for i, o := range in.orders {
		orderOf[o.symbol] = i
	}
	d := newDigest()
	for _, o := range in.orders {
		d.add(o.owner, o.symbol, o.qty, o.limit)
	}
	in.trade = make([]int, total)
	for i, q := range in.tape {
		d.add(q.Symbol, q.Price)
		in.trade[i] = -1
		if oi, ok := orderOf[q.Symbol]; ok && q.Price >= in.orders[oi].limit {
			in.trade[i] = oi
		}
	}
	in.digest = d.String()
	return in
}

// saaState is what the application programs observe during one pass.
// Arrival times are UnixNano, 0 until the callback arrives.
type saaState struct {
	in         *saaInputs
	rec        *recorder
	due        []int64
	sent       []int64
	acked      []int64
	displayAt  []atomic.Int64
	displays   []atomic.Int32
	tradeAt    []atomic.Int64
	trades     []atomic.Int32
	badArgs    atomic.Int64
	bursts     sync.Map // stock OID -> *atomic.Int64
	burstCount atomic.Int64
	failed     atomic.Int64
	nTrades    atomic.Int64
	desk       chan map[string]datum.Value
}

func newSAAState(in *saaInputs, rec *recorder) *saaState {
	n := len(in.tape)
	return &saaState{in: in, rec: rec,
		due: make([]int64, n), sent: make([]int64, n), acked: make([]int64, n),
		displayAt: make([]atomic.Int64, n), displays: make([]atomic.Int32, n),
		tradeAt: make([]atomic.Int64, n), trades: make([]atomic.Int32, n),
		// Sized to the tape: the Trader never blocks the DBMS's
		// execute_trade request on its own signalling backlog.
		desk: make(chan map[string]datum.Value, n)}
}

func (st *saaState) seqOf(args map[string]datum.Value) (int, bool) {
	v, ok := args["seq"]
	if !ok {
		return 0, false
	}
	seq := int(v.AsInt())
	return seq, seq >= 0 && seq < len(st.in.tape)
}

// displayHandlers are the Display program's operations.
func (st *saaState) displayHandlers() map[string]client.Handler {
	return map[string]client.Handler{
		saa.OpDisplayQuote: func(args map[string]datum.Value) (map[string]datum.Value, error) {
			now := time.Now().UnixNano()
			seq, ok := st.seqOf(args)
			if !ok {
				st.badArgs.Add(1)
				return nil, nil
			}
			q := st.in.tape[seq]
			if args["symbol"].AsString() != q.Symbol || args["price"].AsFloat() != q.Price {
				st.badArgs.Add(1)
			}
			st.displayAt[seq].Store(now)
			st.displays[seq].Add(1)
			st.callbackSpan("callback.display_quote", seq, now)
			return nil, nil
		},
		saa.OpDisplayTrade: func(args map[string]datum.Value) (map[string]datum.Value, error) {
			now := time.Now().UnixNano()
			seq, ok := st.seqOf(args)
			if !ok || st.in.trade[seq] < 0 {
				st.badArgs.Add(1)
				return nil, nil
			}
			if args["owner"].AsString() != st.in.orders[st.in.trade[seq]].owner {
				st.badArgs.Add(1)
			}
			st.tradeAt[seq].Store(now)
			st.trades[seq].Add(1)
			st.callbackSpan("callback.display_trade", seq, now)
			return nil, nil
		},
		opBurst: func(args map[string]datum.Value) (map[string]datum.Value, error) {
			c, _ := st.bursts.LoadOrStore(args["stock"].AsOID(), new(atomic.Int64))
			c.(*atomic.Int64).Add(1)
			st.burstCount.Add(1)
			return nil, nil
		},
	}
}

// callbackSpan records a callback's arrival as a span from its
// quote's due time, in the quote's trace.
func (st *saaState) callbackSpan(name string, seq int, at int64) {
	sp := st.rec.beginAt(name, uint64(seq)+1, 0, time.Unix(0, atomic.LoadInt64(&st.due[seq])))
	st.rec.endAt(sp, time.Unix(0, at))
}

// traderHandlers are the Trader program's operations: it hands each
// execution to its trading desk, which signals TradeExecuted.
func (st *saaState) traderHandlers() map[string]client.Handler {
	return map[string]client.Handler{
		saa.OpExecuteTrade: func(args map[string]datum.Value) (map[string]datum.Value, error) {
			if seq, ok := st.seqOf(args); ok {
				st.callbackSpan("callback.execute_trade", seq, time.Now().UnixNano())
			}
			st.nTrades.Add(1)
			st.desk <- args
			return map[string]datum.Value{"status": datum.Str("sent")}, nil
		},
	}
}

// runDesk signals one TradeExecuted per execution, one at a time, on
// the Trader's connection, until stop closes. One desk keeps the
// portfolio updates of one holding in order.
func (st *saaState) runDesk(c *client.Client, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		var args map[string]datum.Value
		select {
		case <-stop:
			return
		case args = <-st.desk:
		}
		seq, _ := st.seqOf(args)
		root := st.rec.begin("trade", uint64(seq)+1, 0)
		err := clientTxn(st.rec, root, c, func(tx *client.Txn) error {
			sp := st.rec.begin("client.signal", root.trace, root.id)
			defer st.rec.end(sp)
			return c.SignalEvent(tx, saa.EventTradeExecuted, args)
		})
		st.rec.end(root)
		if err != nil {
			st.failed.Add(1)
		}
	}
}

// clientTxn runs fn in a remote transaction with spans around each
// client call.
func clientTxn(rec *recorder, root spanRef, c *client.Client, fn func(*client.Txn) error) error {
	sp := rec.begin("client.begin", root.trace, root.id)
	tx, err := c.Begin()
	rec.end(sp)
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	sp = rec.begin("client.commit", root.trace, root.id)
	err = tx.Commit()
	rec.end(sp)
	return err
}

// saaEnv is one set-up engine with its server and application
// connections.
type saaEnv struct {
	eng    *core.Engine
	srv    *server.Server
	a, b   *client.Client
	stocks []datum.OID
	stop   chan struct{} // closed to stop the trading desk
	desk   chan struct{} // closed by the desk on exit
	st     *saaState
}

func setupSAA(dir string, in *saaInputs, st *saaState) (env *saaEnv, err error) {
	eng, err := core.Open(durableOptions(dir))
	if err != nil {
		return nil, err
	}
	env = &saaEnv{eng: eng, srv: server.New(eng), st: st}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return env, err
	}
	go env.srv.Serve(ln)
	if env.a, err = client.Dial(ln.Addr().String()); err != nil {
		return env, err
	}
	if env.b, err = client.Dial(ln.Addr().String()); err != nil {
		return env, err
	}

	c := env.a
	tx, err := c.Begin()
	if err != nil {
		return env, err
	}
	for _, cls := range saa.Classes() {
		if cls.Name == saa.ClassStock {
			cls.Attrs = append(cls.Attrs, object.AttrDef{Name: "seq", Kind: datum.KindInt})
		}
		if err := c.DefineClass(tx, cls); err != nil {
			return env, err
		}
	}
	for _, s := range in.symbols {
		oid, err := c.Create(tx, saa.ClassStock, map[string]datum.Value{
			"symbol": datum.Str(s), "price": datum.Float(50), "seq": datum.Int(-1)})
		if err != nil {
			return env, err
		}
		env.stocks = append(env.stocks, oid)
	}
	for _, o := range in.orders {
		if _, err := c.Create(tx, saa.ClassHolding, map[string]datum.Value{
			"owner": datum.Str(o.owner), "symbol": datum.Str(o.symbol), "qty": datum.Int(0)}); err != nil {
			return env, err
		}
	}
	if err := tx.Commit(); err != nil {
		return env, err
	}
	if err := c.DefineEvent(saa.EventTradeExecuted, append(saa.TradeEventParams, "seq")...); err != nil {
		return env, err
	}
	for _, def := range saaRules(in) {
		if err := c.CreateRule(def); err != nil {
			return env, fmt.Errorf("rule %s: %w", def.Name, err)
		}
	}
	if err := env.a.Serve(st.displayHandlers()); err != nil {
		return env, err
	}
	if err := env.b.Serve(st.traderHandlers()); err != nil {
		return env, err
	}
	env.stop, env.desk = make(chan struct{}), make(chan struct{})
	go st.runDesk(env.b, env.stop, env.desk)
	return env, nil
}

// saaRules is the rule set of internal/saa, with the quote's sequence
// number added to every callback's arguments, plus one composite rule:
// every saaBurst quotes of one stock, tell the Display.
func saaRules(in *saaInputs) []rule.Def {
	quote := saa.DisplayQuoteRule("display-quote")
	quote.Action[0].Args["seq"] = "event.new_seq"
	quote.Action[0].Args["price"] = "event.new_price"
	defs := []rule.Def{quote}
	for i, o := range in.orders {
		buy := saa.BuyAtRule(fmt.Sprintf("buy-%02d", i), o.owner, o.symbol, o.qty, o.limit)
		buy.Action[0].Args["seq"] = "event.new_seq"
		defs = append(defs, buy)
	}
	trade := saa.DisplayTradeRule("display-trade")
	trade.Action[0].Args["seq"] = "event.seq"
	defs = append(defs, saa.PortfolioUpdateRule("portfolio-update"), trade, rule.Def{
		Name:  "burst",
		Event: fmt.Sprintf("tumbling(modify(%s), %d where oid=$s)", saa.ClassStock, saaBurst),
		Action: []rule.Step{{Kind: rule.StepRequest, Op: opBurst,
			Args: map[string]string{"stock": "event.s"}}},
		EC: "separate", CA: "immediate",
	})
	return defs
}

func (env *saaEnv) close() {
	if env.a != nil {
		env.a.Close()
	}
	if env.b != nil {
		env.b.Close()
	}
	if env.desk != nil {
		close(env.stop)
		<-env.desk
	}
	env.srv.Close()
	env.eng.Close()
}

func runSAA(cfg config, rec *recorder) (*outcome, error) {
	size := saaFull
	if cfg.tiny {
		size = saaTiny
	}
	in := genSAA(cfg.seed, size, cfg.seconds)

	var st *saaState
	env, setupS, err := setUp(func(i int) (*saaEnv, error) {
		st = newSAAState(in, rec)
		return setupSAA(filepath.Join(cfg.dir, fmt.Sprintf("saa-%d", i)), in, st)
	}, (*saaEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	files := trackChainFiles(env.eng.Store.Dir())
	if err := runPhase(env, st, in.warmup); err != nil {
		return nil, err
	}
	before := readCounters(env.eng, nil)
	monitor := startMonitor(func() []float64 {
		files.sample()
		return []float64{float64(backlog(st))}
	})
	for _, ph := range in.phases {
		if err := runPhase(env, st, ph); err != nil {
			monitor.stop()
			return nil, err
		}
	}
	samples := monitor.stop()
	// Every trade and burst callback arrives before the window closes.
	nTrades, nBursts, _ := expectedSAA(in)
	if err := waitFor(30*time.Second, func() bool {
		return countTrades(st) >= nTrades && st.burstCount.Load() >= nBursts
	}); err != nil {
		return nil, fmt.Errorf("cascade never completed: %d/%d trades, %d/%d bursts",
			countTrades(st), nTrades, st.burstCount.Load(), nBursts)
	}
	env.eng.Quiesce()
	after := readCounters(env.eng, nil)
	heap := liveHeapMB()

	o := &outcome{inputs: in.digest, attempted: int64(len(in.tape))}
	scan, join, probeChecks, err := saaProbe(env, st, size.probeReps)
	if err != nil {
		return nil, err
	}
	o.checks = append(saaChecks(env, st, in), probeChecks...)
	o.failed = st.failed.Load()
	for i := range in.tape {
		if st.displays[i].Load() == 0 {
			o.failed++
		}
	}

	nom := in.phases[size.nominal]
	var commit, reaction, cascade, late latencies
	for i := nom.first; i < nom.first+nom.n; i++ {
		commit = append(commit, time.Duration(st.acked[i]-st.due[i]))
		reaction = append(reaction, time.Duration(st.displayAt[i].Load()-st.due[i]))
		late = append(late, time.Duration(st.sent[i]-st.due[i]))
		if in.trade[i] >= 0 {
			cascade = append(cascade, time.Duration(st.tradeAt[i].Load()-st.due[i]))
		}
	}
	sustained := 0.0
	for i, ph := range in.phases {
		r := phaseReaction(st, ph)
		ok := r.quantile(0.99) <= ms(saaLimit) && phaseBacklog(st, ph) <= 2+ph.n/100
		if ok {
			sustained = ph.rate
		}
		o.notes = append(o.notes, fmt.Sprintf("rung %d: %6.0f quotes/s  n=%5d  reaction p50 %.2fms p99 %.2fms  backlog@end %d  ok=%v",
			i, ph.rate, ph.n, r.quantile(0.5), r.quantile(0.99), phaseBacklog(st, ph), ok))
	}
	top := in.phases[len(in.phases)-1]
	shown := make([]int64, 0, top.n)
	for i := top.first; i < top.first+top.n; i++ {
		shown = append(shown, st.displayAt[i].Load())
	}
	throughput := blockRate(st.due[top.first], shown, 500)

	d := delta{before, after}
	ops := float64(len(in.tape) - in.warmup.n) // quotes in the window
	cpu, allocs := d.endToEndCosts(ops)
	o.e2e = map[string]float64{
		"setup_s":           setupS,
		"commit_p50_ms":     commit.quantile(0.5),
		"reaction_p50_ms":   reaction.quantile(0.5),
		"ops_per_s":         throughput,
		"scan_query_p50_ms": scan.quantile(0.5),
		"join_query_p50_ms": join.quantile(0.5),
		"cpu_us_per_op":     cpu,
		"allocs_per_op":     allocs,
		"heap_mb":           heap,
	}
	var backlogMax float64
	for _, s := range samples {
		backlogMax = max(backlogMax, s[0])
	}
	payload := ops * 16 // price and seq, 8 bytes each, per quote
	o.layer = layerMetrics(d, ops, summarize(rec.snapshot()), map[string]float64{
		"storage.write_amp":     writeAmp(d, files.written(), payload),
		"rule.aborts_per_op":    0,
		"tail.commit_p99_ms":    commit.blockQuantile(0.99),
		"tail.reaction_p99_ms":  reaction.blockQuantile(0.99),
		"rule.cascade_p50_ms":   cascade.quantile(0.5),
		"repl.lag_max_ms":       0,
		"loadgen.late_p99_ms":   late.quantile(0.99),
		"loadgen.backlog_max":   backlogMax,
		"loadgen.sustained_qps": sustained,
	})
	o.notes = append(o.notes, fmt.Sprintf("quotes=%d trades=%d bursts=%d sustained=%.0f/s top-rung throughput=%.0f/s cascade p50=%.2fms",
		len(in.tape), nTrades, nBursts, sustained, throughput, cascade.quantile(0.5)))
	return o, nil
}

// runPhase offers one rung's quotes on schedule and waits until each
// has been committed and displayed.
func runPhase(env *saaEnv, st *saaState, ph saaPhase) error {
	start := time.Now().Add(2 * time.Millisecond)
	for i := ph.first; i < ph.first+ph.n; i++ {
		atomic.StoreInt64(&st.due[i], start.Add(time.Duration(float64(i-ph.first)/ph.rate*1e9)).UnixNano())
	}
	var wg sync.WaitGroup
	for w, c := range []*client.Client{env.a, env.b} {
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			for i := ph.first; i < ph.first+ph.n; i++ {
				q := st.in.tape[i]
				if st.in.symIndex[q.Symbol]%2 != w {
					continue
				}
				sendQuote(env, st, c, i)
			}
		}(w, c)
	}
	wg.Wait()
	return waitFor(30*time.Second, func() bool {
		for i := ph.first; i < ph.first+ph.n; i++ {
			if st.displays[i].Load() == 0 && atomic.LoadInt64(&st.acked[i]) != 0 {
				return false
			}
		}
		return true
	})
}

// sendQuote waits until quote i is due, then runs its Ticker
// transaction.
func sendQuote(env *saaEnv, st *saaState, c *client.Client, i int) {
	due := time.Unix(0, st.due[i])
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	q := st.in.tape[i]
	sent := time.Now()
	atomic.StoreInt64(&st.sent[i], sent.UnixNano())
	root := st.rec.beginAt("quote", uint64(i)+1, 0, due)
	st.rec.endAt(st.rec.beginAt("loadgen.wait", root.trace, root.id, due), sent)
	err := clientTxn(st.rec, root, c, func(tx *client.Txn) error {
		sp := st.rec.begin("client.modify", root.trace, root.id)
		defer st.rec.end(sp)
		return c.Modify(tx, env.stocks[st.in.symIndex[q.Symbol]], map[string]datum.Value{
			"price": datum.Float(q.Price), "seq": datum.Int(int64(q.Seq))})
	})
	now := time.Now()
	st.rec.endAt(root, now)
	if err != nil {
		st.failed.Add(1)
		return
	}
	atomic.StoreInt64(&st.acked[i], now.UnixNano())
}

// backlog is the number of quotes due but not yet sent.
func backlog(st *saaState) int {
	now := time.Now().UnixNano()
	n := 0
	for i := range st.due {
		d := atomic.LoadInt64(&st.due[i])
		if d != 0 && d <= now && atomic.LoadInt64(&st.sent[i]) == 0 {
			n++
		}
	}
	return n
}

// phaseBacklog is the number of a rung's quotes that were still
// unsent when its last quote fell due.
func phaseBacklog(st *saaState, ph saaPhase) int {
	last := st.due[ph.first+ph.n-1]
	n := 0
	for i := ph.first; i < ph.first+ph.n; i++ {
		if st.sent[i] > last {
			n++
		}
	}
	return n
}

func phaseReaction(st *saaState, ph saaPhase) latencies {
	var r latencies
	for i := ph.first; i < ph.first+ph.n; i++ {
		r = append(r, time.Duration(st.displayAt[i].Load()-st.due[i]))
	}
	return r
}

func countTrades(st *saaState) int64 {
	var n int64
	for i := range st.trades {
		n += int64(st.trades[i].Load())
	}
	return n
}

// expectedSAA derives from the tape the number of trades and of
// composite firings, in all and per stock.
func expectedSAA(in *saaInputs) (trades, bursts int64, perStock []int64) {
	perStock = make([]int64, len(in.symbols))
	for i, q := range in.tape {
		perStock[in.symIndex[q.Symbol]]++
		if in.trade[i] >= 0 {
			trades++
		}
	}
	for i := range perStock {
		perStock[i] /= saaBurst
		bursts += perStock[i]
	}
	return trades, bursts, perStock
}

// saaChecks compares what the Display and Trader saw, and the final
// holdings, with what the tape predicts.
func saaChecks(env *saaEnv, st *saaState, in *saaInputs) []check {
	var committed, displayedOnce, dupDisplays, tradeOnce int64
	for i := range in.tape {
		if st.acked[i] != 0 {
			committed++
		}
		switch n := st.displays[i].Load(); {
		case n == 1:
			displayedOnce++
		case n > 1:
			dupDisplays += int64(n - 1)
		}
		if in.trade[i] >= 0 && st.trades[i].Load() == 1 {
			tradeOnce++
		}
	}
	nTrades, nBursts, perStock := expectedSAA(in)
	var burstMismatch int64
	for i, oid := range env.stocks {
		var got int64
		if c, ok := st.bursts.Load(oid); ok {
			got = c.(*atomic.Int64).Load()
		}
		if got != perStock[i] {
			burstMismatch++
		}
	}
	stats := env.eng.Stats()
	checks := []check{
		{"quotes committed", int64(len(in.tape)), committed},
		{"quotes displayed exactly once with their seq", int64(len(in.tape)), displayedOnce},
		{"duplicate displays", 0, dupDisplays},
		{"callbacks with wrong arguments", 0, st.badArgs.Load()},
		{"trades executed", nTrades, st.nTrades.Load()},
		{"trades displayed exactly once", nTrades, tradeOnce},
		{"cep firings", nBursts, int64(stats.Detectors.CEPFirings)},
		{"burst callbacks", nBursts, st.burstCount.Load()},
		{"stocks with a wrong burst count", 0, burstMismatch},
		{"async rule errors", 0, int64(len(env.eng.AsyncErrors()))},
	}
	// Final holdings equal the sum of the executed trades.
	want := make([]int64, len(in.orders))
	for i := range in.tape {
		if oi := in.trade[i]; oi >= 0 {
			want[oi] += in.orders[oi].qty
		}
	}
	tx := env.eng.Begin()
	defer tx.Commit()
	res, err := env.eng.Query(tx, "select h.owner, h.qty from Holding h", nil)
	var wrong, total, wantTotal int64 = int64(len(in.orders)), 0, 0
	if err == nil {
		got := map[string]int64{}
		for _, row := range res.Rows {
			got[row[0].AsString()] = row[1].AsInt()
		}
		wrong = 0
		for i, o := range in.orders {
			if got[o.owner] != want[i] {
				wrong++
			}
			total += got[o.owner]
		}
	}
	for _, w := range want {
		wantTotal += w
	}
	return append(checks,
		check{"holdings differing from their executed trades", 0, wrong},
		check{"total shares held", wantTotal, total})
}

// saaProbe runs the Display program's two analyst queries over the
// final database: a market summary over every Stock and a portfolio
// join of Holding with Stock. Both answers are known from the tape.
func saaProbe(env *saaEnv, st *saaState, reps int) (scan, join latencies, checks []check, err error) {
	in := st.in
	last := map[string]feed.Quote{}
	for _, q := range in.tape {
		last[q.Symbol] = q
	}
	var wantSeqs, wantHi int64
	for _, s := range in.symbols {
		q, ok := last[s]
		if !ok {
			wantSeqs--
			wantHi = max(wantHi, 5000)
			continue
		}
		wantSeqs += int64(q.Seq)
		wantHi = max(wantHi, int64(math.Round(q.Price*100)))
	}
	var wantShares int64
	for i := range in.tape {
		if oi := in.trade[i]; oi >= 0 {
			wantShares += in.orders[oi].qty
		}
	}
	const (
		scanQ = "select count(s) as n, sum(s.seq) as seqs, max(s.price) as hi from Stock s"
		joinQ = "select count(h) as n, sum(h.qty) as shares from Holding h, Stock s where h.symbol = s.symbol"
	)
	c := env.a
	var badScan, badJoin int64
	for r := 0; r < reps; r++ {
		// Each query starts from a collected heap, so whether a GC cycle
		// falls into it does not depend on what ran before.
		runtime.GC()
		tx, err := c.Begin()
		if err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		sp := st.rec.beginAt("client.query", 0, 0, t0)
		res, err := c.Query(tx, scanQ, nil)
		st.rec.end(sp)
		scan = append(scan, time.Since(t0))
		if err != nil {
			return nil, nil, nil, err
		}
		row := res.Rows[0]
		if row[0].AsInt() != int64(len(in.symbols)) || row[1].AsInt() != wantSeqs ||
			int64(math.Round(row[2].AsFloat()*100)) != wantHi {
			badScan++
		}
		t0 = time.Now()
		sp = st.rec.beginAt("client.query", 0, 0, t0)
		res, err = c.Query(tx, joinQ, nil)
		st.rec.end(sp)
		join = append(join, time.Since(t0))
		if err != nil {
			return nil, nil, nil, err
		}
		row = res.Rows[0]
		if row[0].AsInt() != int64(len(in.orders)) || row[1].AsInt() != wantShares {
			badJoin++
		}
		if err := tx.Commit(); err != nil {
			return nil, nil, nil, err
		}
	}
	return scan, join, []check{{"wrong market summaries", 0, badScan}, {"wrong portfolio joins", 0, badJoin}}, nil
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %s", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
