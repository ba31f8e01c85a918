package plan

// Parallel execution. A plan whose steps carry par > 1 runs as a
// staged, materialized pipeline instead of the volcano tree: each
// stage consumes the previous stage's tuple slice and produces the
// next, fanning work out over goroutines where the step allows it.
//
//	shard 0 ──scan+filter──┐
//	shard 1 ──scan+filter──┤  k-way merge     probe stages,      canonical
//	   ...                 ├─ by OID     ──▶  chunk-ordered  ──▶ order    ──▶ emit
//	shard N ──scan+filter──┘                  output             check
//
// Correctness rides entirely on three facts (see the package
// comment): tuple production order is free because canonicalJoin
// restores the oracle's emission order; access paths never decide
// membership, so residual re-filtering in any worker is exactly the
// oracle's check; and every worker of a base scan or hash build reads
// at ONE pinned snapshot LSN, so the union of the shard scans equals
// one serial scan of the same snapshot. Order is kept wherever it is
// free, so the final sort is usually skipped: every shard scan is
// OID-ordered and the base stage merges the shard runs rather than
// concatenating them, and a probe stage writes each claimed chunk of
// outer tuples to that chunk's own output slot, so it emits in outer
// order. Aggregation stays bit-identical through
// query.MergeAggState: exact partial merges (count, min/max, integer
// sums) run chunk-parallel, order-sensitive ones (float sums, avg)
// fall back to one serial re-accumulation over the canonically
// ordered tuples.

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/query"
)

// ShardScanner is the optional reader fan-out surface for
// shard-parallel extent scans. The object manager's readers implement
// it against the store's OID-hash shards; the executor type-asserts
// it from the query.Reader, and any reader may decline by not
// implementing it — base scans then run serially.
type ShardScanner interface {
	// ShardCount returns the number of committed-tier shards.
	ShardCount() int
	// PinShards returns the snapshot LSN every shard worker must read
	// at, plus a release for the backing pin. Pinning once for the
	// whole fan-out is the parallel scan's consistency contract: all
	// workers observe one committed state no matter how commits race.
	PinShards() (lsn uint64, release func())
	// ScanClassShard visits the class's live objects held by shard si
	// at the given LSN, in OID order within the shard.
	ScanClassShard(si int, class string, lsn uint64, fn func(datum.OID, map[string]datum.Value) bool) error
}

// maxPar returns the widest step fan-out of the plan (1 when fully
// serial).
func (p *Plan) maxPar() int {
	par := 1
	for _, s := range p.steps {
		if s.par > par {
			par = s.par
		}
	}
	return par
}

// --- partitioned hash table ---

// hashTable is the hash-join build side, partitioned by FNV-1a of the
// join key so parallel build workers merge partition-disjoint (and
// probe workers read lock-free — the table is immutable after build).
// One partition degenerates to the serial executor's plain map.
type hashTable struct {
	mask  uint32
	parts []map[string][]cand
}

func newHashTable(nparts int) *hashTable {
	n := 1
	for n < nparts {
		n <<= 1
	}
	parts := make([]map[string][]cand, n)
	for i := range parts {
		parts[i] = map[string][]cand{}
	}
	return &hashTable{mask: uint32(n - 1), parts: parts}
}

// fnvHash is FNV-1a over the datum key bytes.
func fnvHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (h *hashTable) bucket(key string) map[string][]cand {
	if h.mask == 0 {
		return h.parts[0]
	}
	return h.parts[fnvHash(key)&h.mask]
}

func (h *hashTable) add(key string, c cand) {
	b := h.bucket(key)
	b[key] = append(b[key], c)
}

func (h *hashTable) get(key string) []cand { return h.bucket(key)[key] }

// --- gather instrumentation ---

// gather records worker completion times; the skew between the first
// and last arrival is how long the gather node idled on stragglers.
type gather struct {
	mu          sync.Mutex
	first, last time.Time
	n           int
}

func (g *gather) done() {
	now := time.Now()
	g.mu.Lock()
	if g.n == 0 {
		g.first = now
	}
	g.n++
	g.last = now
	g.mu.Unlock()
}

// observeGather records one parallel stage's fan-out width and gather
// skew. Nil-safe on p.obs.
func (p *Plan) observeGather(workers int, g *gather) {
	if p.obs == nil {
		return
	}
	p.obs.ObserveN(obs.HPlanFanout, uint64(workers))
	g.mu.Lock()
	skew := g.last.Sub(g.first)
	g.mu.Unlock()
	p.obs.Observe(obs.HPlanGatherWait, skew)
}

// fanOut runs work on workers goroutines and returns once every one
// has exited. The first error raises stop, which workers poll between
// rows so the rest wind down promptly; fanOut returns the error of the
// lowest-numbered failing worker.
func (p *Plan) fanOut(workers int, work func(w int, stop *atomic.Bool) error) error {
	var stop atomic.Bool
	errs := make([]error, workers)
	g := &gather{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer g.done()
			if err := work(w, &stop); err != nil {
				errs[w] = err
				stop.Store(true)
			}
		}(w)
	}
	wg.Wait()
	p.observeGather(workers, g)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- staged pipeline ---

// joinParallel produces the join output of a plan with at least one
// parallel step, stage by stage (canonicalJoin checks its order).
func (p *Plan) joinParallel(x *execCtx) ([]tuple, error) {
	width := len(p.vars)
	s0 := p.steps[0]
	var tuples []tuple
	var err error
	ss, sharded := x.r.(ShardScanner)
	if s0.par > 1 && s0.access == accessExtent && sharded {
		tuples, err = p.parallelBase(x, s0, ss, width)
	} else {
		tuples, err = p.serialBase(x, s0, width)
	}
	if err != nil {
		return nil, err
	}
	placed := []*step{s0}
	for _, s := range p.steps[1:] {
		if len(tuples) == 0 {
			// No outer rows: every remaining stage is a no-op. The
			// serial executor never Opens an inner step without an
			// outer row — a hash build (and any build-key error) is
			// skipped there too, so skipping here stays identical.
			break
		}
		if s.par > 1 {
			tuples, err = p.parallelJoin(x, s, placed, tuples)
		} else {
			tuples, err = p.serialJoin(x, s, placed, tuples)
		}
		if err != nil {
			return nil, err
		}
		placed = append(placed, s)
	}
	return tuples, nil
}

// parallelBase fans the first step's extent scan out one worker per
// committed-tier shard slice, all pinned at one snapshot LSN. Each
// worker applies the step's residuals with its own env and keeps each
// shard's survivors as a separate OID-ordered run; one k-way merge of
// the runs then yields the base in OID order.
func (p *Plan) parallelBase(x *execCtx, s *step, ss ShardScanner, width int) ([]tuple, error) {
	lsn, release := ss.PinShards()
	defer release()
	nsh := ss.ShardCount()
	workers := min(s.par, nsh)
	runs := make([][]tuple, nsh)
	err := p.fanOut(workers, func(w int, stop *atomic.Bool) error {
		env := query.NewEnv(x.r, x.args)
		slab := tupleSlab{width: width}
		for si := w; si < nsh && !stop.Load(); si += workers {
			var run []tuple
			var evalErr error
			err := ss.ScanClassShard(si, s.from.Class, lsn, func(oid datum.OID, attrs map[string]datum.Value) bool {
				if stop.Load() {
					return false
				}
				env.Bind(s.from.Var, oid, attrs)
				for _, r := range s.residual {
					ok, err := env.EvalBool(r)
					if err != nil {
						evalErr = err
						return false
					}
					if !ok {
						return true
					}
				}
				t := slab.next()
				t[s.slot] = cand{oid: oid, attrs: attrs}
				run = append(run, t)
				return true
			})
			if err == nil {
				err = evalErr
			}
			if err != nil {
				return err
			}
			runs[si] = run
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	out := make([]tuple, 0, n)
	datum.MergeByOID(runs, func(t tuple) datum.OID { return t[s.slot].oid }, func(t tuple) bool {
		out = append(out, t)
		return true
	})
	return out, nil
}

// serialBase materializes the first step's output on the calling
// goroutine (the staged equivalent of baseIter).
func (p *Plan) serialBase(x *execCtx, s *step, width int) ([]tuple, error) {
	sc := &stepCands{s: s}
	if err := sc.Open(x); err != nil {
		return nil, err
	}
	defer sc.Close(x)
	slab := tupleSlab{width: width}
	var out []tuple
	for {
		c, ok, err := sc.Next(x)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		t := slab.next()
		t[s.slot] = c
		out = append(out, t)
	}
}

// bindPrefix binds the outer tuple's placed variables into env.
func bindPrefix(env *query.Env, placed []*step, t tuple) {
	for _, ps := range placed {
		c := t[ps.slot]
		env.Bind(ps.from.Var, c.oid, c.attrs)
	}
}

// joinChunk is the outer-tuple granule parallel probe workers claim.
const joinChunk = 64

// parallelJoin runs one join step over the materialized outer tuples
// with par probe workers. A hash step's build side is constructed
// first — shard-parallel and partitioned when the reader allows —
// then shared immutably by every prober; index and extent inners
// re-open per outer row inside each worker, exactly like the serial
// nested loop. Workers claim chunks of outer tuples and write each
// chunk's matches to that chunk's slot, so the concatenated output
// keeps the outer order, as the serial loop does.
func (p *Plan) parallelJoin(x *execCtx, s *step, placed []*step, outer []tuple) ([]tuple, error) {
	var table *hashTable
	if s.access == accessHash {
		var err error
		if table, err = p.buildHash(x, s); err != nil {
			return nil, err
		}
	}
	nchunks := (len(outer) + joinChunk - 1) / joinChunk
	chunks := make([][]tuple, nchunks)
	var next atomic.Int64
	err := p.fanOut(min(s.par, nchunks), func(w int, stop *atomic.Bool) error {
		env := query.NewEnv(x.r, x.args)
		wx := &execCtx{r: x.r, env: env, args: x.args}
		sc := &stepCands{s: s, table: table, built: table != nil}
		slab := tupleSlab{width: len(p.vars)}
		for !stop.Load() {
			ci := int(next.Add(1) - 1)
			if ci >= nchunks {
				return nil
			}
			var out []tuple
			for _, t := range outer[ci*joinChunk : min((ci+1)*joinChunk, len(outer))] {
				bindPrefix(env, placed, t)
				if err := sc.Open(wx); err != nil {
					return err
				}
				for {
					c, ok, err := sc.Next(wx)
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					nt := slab.next()
					copy(nt, t)
					nt[s.slot] = c
					out = append(out, nt)
				}
			}
			chunks[ci] = out
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(chunks...), nil
}

// serialJoin runs one join step on the calling goroutine (the staged
// equivalent of joinIter; the hash build persists across outer rows
// inside sc).
func (p *Plan) serialJoin(x *execCtx, s *step, placed []*step, outer []tuple) ([]tuple, error) {
	sc := &stepCands{s: s}
	slab := tupleSlab{width: len(p.vars)}
	var out []tuple
	for _, t := range outer {
		bindPrefix(x.env, placed, t)
		if err := sc.Open(x); err != nil {
			return nil, err
		}
		for {
			c, ok, err := sc.Next(x)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			nt := slab.next()
			copy(nt, t)
			nt[s.slot] = c
			out = append(out, nt)
		}
	}
	return out, nil
}

// buildHash constructs the partitioned build side of a hash step. With
// a ShardScanner it fans the build out one worker per shard slice at
// one pinned LSN, each filling a private partitioned table, then
// merges per partition — merge workers own disjoint partitions, so
// the whole build is lock-free. Otherwise one serial scan fills the
// (still partitioned) table.
func (p *Plan) buildHash(x *execCtx, s *step) (*hashTable, error) {
	nparts := s.par
	ss, sharded := x.r.(ShardScanner)
	workers := 0
	var nsh int
	if sharded {
		nsh = ss.ShardCount()
		workers = s.par
		if workers > nsh {
			workers = nsh
		}
	}
	if workers <= 1 {
		return buildHashSerial(x, s, nparts)
	}

	lsn, release := ss.PinShards()
	defer release()
	locals := make([]*hashTable, workers)
	err := p.fanOut(workers, func(w int, stop *atomic.Bool) error {
		env := query.NewEnv(x.r, x.args)
		t := newHashTable(nparts)
		locals[w] = t
		for si := w; si < nsh && !stop.Load(); si += workers {
			var keyErr error
			err := ss.ScanClassShard(si, s.from.Class, lsn, func(oid datum.OID, attrs map[string]datum.Value) bool {
				if stop.Load() {
					return false
				}
				env.Bind(s.from.Var, oid, attrs)
				v, err := env.Eval(s.buildKey)
				if err != nil {
					if errors.Is(err, query.ErrNoValue) {
						return true // a missing key never equals anything
					}
					keyErr = err
					return false
				}
				if v.IsNull() {
					return true // null never equals anything
				}
				t.add(v.Key(), cand{oid: oid, attrs: attrs})
				return true
			})
			if err == nil {
				err = keyErr
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	merged := newHashTable(nparts)
	mworkers := workers
	if mworkers > len(merged.parts) {
		mworkers = len(merged.parts)
	}
	var mwg sync.WaitGroup
	for w := 0; w < mworkers; w++ {
		mwg.Add(1)
		go func(w int) {
			defer mwg.Done()
			for pi := w; pi < len(merged.parts); pi += mworkers {
				dst := merged.parts[pi]
				for _, lt := range locals {
					for k, cs := range lt.parts[pi] {
						dst[k] = append(dst[k], cs...)
					}
				}
			}
		}(w)
	}
	mwg.Wait()
	return merged, nil
}

// buildHashSerial fills a partitioned table with one ScanClass — the
// serial executor's openHash build, shared here so both paths agree.
func buildHashSerial(x *execCtx, s *step, nparts int) (*hashTable, error) {
	t := newHashTable(nparts)
	var keyErr error
	err := x.r.ScanClass(s.from.Class, func(oid datum.OID, attrs map[string]datum.Value) bool {
		x.env.Bind(s.from.Var, oid, attrs)
		v, err := x.env.Eval(s.buildKey)
		x.env.Unbind(s.from.Var)
		if err != nil {
			if errors.Is(err, query.ErrNoValue) {
				return true // a missing key never equals anything
			}
			keyErr = err
			return false
		}
		if v.IsNull() {
			return true // null never equals anything
		}
		t.add(v.Key(), cand{oid: oid, attrs: attrs})
		return true
	})
	if keyErr != nil {
		return nil, keyErr
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// --- parallel partial aggregation ---

// parallelAggregate accumulates the select items' aggregates over the
// canonically sorted tuples in contiguous chunks, one worker each,
// then merges the partials in chunk order. ok is false when any item
// refuses an exact merge (order-sensitive accumulation — float sums,
// averages, incomparable min/max partials); the caller then
// re-accumulates serially, preserving bit-identical output.
func (p *Plan) parallelAggregate(x *execCtx, tuples []tuple) ([]*query.AggState, bool, error) {
	q := p.Query
	workers := p.maxPar()
	if chunks := (len(tuples) + joinChunk - 1) / joinChunk; workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		return nil, false, nil
	}
	per := (len(tuples) + workers - 1) / workers
	partials := make([][]*query.AggState, workers)
	err := p.fanOut(workers, func(w int, stop *atomic.Bool) error {
		lo, hi := w*per, min((w+1)*per, len(tuples))
		if lo >= hi {
			return nil
		}
		env := query.NewEnv(x.r, x.args)
		aggs := make([]*query.AggState, len(q.Select))
		for i := range aggs {
			aggs[i] = &query.AggState{}
		}
		partials[w] = aggs
		for _, t := range tuples[lo:hi] {
			if stop.Load() {
				return nil
			}
			for slot, c := range t {
				env.Bind(p.vars[slot], c.oid, c.attrs)
			}
			for i, s := range q.Select {
				if err := env.Accumulate(aggs[i], s.Expr); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	var merged []*query.AggState
	for _, part := range partials {
		if part == nil {
			continue
		}
		if merged == nil {
			merged = part
			continue
		}
		for i, s := range q.Select {
			if !query.MergeAggState(merged[i], part[i], s.Expr) {
				return nil, false, nil
			}
		}
	}
	if merged == nil {
		return nil, false, nil
	}
	return merged, true, nil
}
