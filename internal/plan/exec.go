package plan

import (
	"cmp"
	"errors"
	"slices"
	"sort"

	"repro/internal/datum"
	"repro/internal/query"
)

// execCtx is the per-Execute state shared by the operator tree: the
// reader, the expression environment holding the bindings of the
// current pipeline prefix, and the event arguments (kept so parallel
// stages can mint per-worker environments).
type execCtx struct {
	r    query.Reader
	env  *query.Env
	args map[string]datum.Value
}

// cand is one candidate object produced by a step's access path.
type cand struct {
	oid   datum.OID
	attrs map[string]datum.Value
}

// tuple is one join-output row: a binding per syntactic FROM slot.
type tuple []cand

// compareTuples orders tuples slot-wise by OID — the oracle's
// emission order (see the package comment).
func compareTuples(a, b tuple) int {
	for i := range a {
		if c := cmp.Compare(a[i].oid, b[i].oid); c != 0 {
			return c
		}
	}
	return 0
}

// tupleSlab carves tuples out of shared backing arrays instead of
// allocating each one. Arrays start small and double up to
// maxSlabTuples, so a condition query producing a handful of rows
// allocates little while a 100k-row scan allocates a few hundred
// times. A stage's tuples all live until the next stage (or emit) has
// consumed them, so sharing an array keeps nothing alive for longer.
type tupleSlab struct {
	width int
	n     int // tuples in the current array
	buf   []cand
}

const maxSlabTuples = 256

// next returns a zeroed tuple of the slab's width.
func (a *tupleSlab) next() tuple {
	if len(a.buf) < a.width {
		a.n = min(max(2*a.n, 4), maxSlabTuples)
		a.buf = make([]cand, a.width*a.n)
	}
	t := tuple(a.buf[:a.width:a.width])
	a.buf = a.buf[a.width:]
	return t
}

// rowSource is the volcano iterator contract. Invariant: after Next
// returns a tuple, the env holds exactly that tuple's bindings (each
// step binds its variable as it yields), so residuals and select
// expressions evaluate against the current row.
type rowSource interface {
	Open(x *execCtx) error
	Next(x *execCtx) (tuple, bool, error)
	Close(x *execCtx)
}

// --- step candidates: pin / index scan / extent scan / hash probe ---

// stepCands produces the candidates of one step for the current outer
// bindings, applying the step's residual filters. Re-Opened per outer
// row by the enclosing join; the hash table persists across re-Opens.
type stepCands struct {
	s     *step
	cands []cand
	i     int

	// table is the hash build side, built on first Open (or injected
	// pre-built by a parallel probe stage) and immutable afterwards.
	table *hashTable
	built bool
}

func (sc *stepCands) Open(x *execCtx) error {
	sc.i = 0
	sc.cands = sc.cands[:0]
	switch sc.s.access {
	case accessPin:
		return sc.openPin(x)
	case accessIndex:
		return sc.openIndex(x)
	case accessHash:
		return sc.openHash(x)
	default:
		return sc.openExtent(x)
	}
}

func (sc *stepCands) openPin(x *execCtx) error {
	v, err := x.env.Eval(sc.s.pin)
	if err != nil {
		if errors.Is(err, query.ErrNoValue) {
			return nil // residual `var = <missing>` rejects every row anyway
		}
		return err
	}
	if v.Kind() != datum.KindOID {
		return nil // residual comparison to a non-OID is always false
	}
	cls, attrs, ok := x.r.Fetch(v.AsOID())
	if !ok || cls != sc.s.from.Class {
		return nil
	}
	sc.cands = append(sc.cands, cand{oid: v.AsOID(), attrs: attrs})
	return nil
}

func (sc *stepCands) openIndex(x *execCtx) error {
	var loV, hiV *datum.Value
	if sc.s.lo != nil {
		v, err := x.env.Eval(sc.s.lo)
		if err != nil {
			if errors.Is(err, query.ErrNoValue) {
				return nil // the residual comparison is unknown=false for every row
			}
			return err
		}
		loV = &v
	}
	if sc.s.hi != nil {
		if sc.s.hi == sc.s.lo {
			hiV = loV
		} else {
			v, err := x.env.Eval(sc.s.hi)
			if err != nil {
				if errors.Is(err, query.ErrNoValue) {
					return nil
				}
				return err
			}
			hiV = &v
		}
	}
	oids, ok := x.r.LookupRange(sc.s.from.Class, sc.s.attr, loV, hiV, sc.s.loInc, sc.s.hiInc)
	if !ok {
		// The index vanished (or the reader has none): degrade to the
		// extent scan; the residuals keep the result identical.
		return sc.openExtent(x)
	}
	for _, oid := range oids {
		cls, attrs, ok := x.r.Fetch(oid)
		if !ok || cls != sc.s.from.Class {
			continue
		}
		sc.cands = append(sc.cands, cand{oid: oid, attrs: attrs})
	}
	return nil
}

func (sc *stepCands) openExtent(x *execCtx) error {
	return x.r.ScanClass(sc.s.from.Class, func(oid datum.OID, attrs map[string]datum.Value) bool {
		sc.cands = append(sc.cands, cand{oid: oid, attrs: attrs})
		return true
	})
}

func (sc *stepCands) openHash(x *execCtx) error {
	if !sc.built {
		t, err := buildHashSerial(x, sc.s, 1)
		if err != nil {
			return err
		}
		sc.table = t
		sc.built = true
	}
	v, err := x.env.Eval(sc.s.probeKey)
	if err != nil {
		if errors.Is(err, query.ErrNoValue) {
			return nil
		}
		return err
	}
	if v.IsNull() {
		return nil
	}
	// Bucket membership is a candidate set, not a verdict: datum keys
	// collide across int/float precision loss, and the residual
	// equality re-check decides — exactly the oracle's semantics.
	sc.cands = append(sc.cands, sc.table.get(v.Key())...)
	return nil
}

// Next yields the next candidate that passes the residuals, with the
// step's variable bound in the env.
func (sc *stepCands) Next(x *execCtx) (cand, bool, error) {
	for sc.i < len(sc.cands) {
		c := sc.cands[sc.i]
		sc.i++
		x.env.Bind(sc.s.from.Var, c.oid, c.attrs)
		pass := true
		for _, r := range sc.s.residual {
			ok, err := x.env.EvalBool(r)
			if err != nil {
				return cand{}, false, err
			}
			if !ok {
				pass = false
				break
			}
		}
		if pass {
			return c, true, nil
		}
	}
	return cand{}, false, nil
}

func (sc *stepCands) Close(x *execCtx) {
	x.env.Unbind(sc.s.from.Var)
	sc.cands = nil
}

// --- join pipeline ---

// baseIter adapts the first step to a rowSource.
type baseIter struct {
	sc   stepCands
	slab tupleSlab
}

func (b *baseIter) Open(x *execCtx) error { return b.sc.Open(x) }

func (b *baseIter) Next(x *execCtx) (tuple, bool, error) {
	c, ok, err := b.sc.Next(x)
	if err != nil || !ok {
		return nil, false, err
	}
	t := b.slab.next()
	t[b.sc.s.slot] = c
	return t, true, nil
}

func (b *baseIter) Close(x *execCtx) { b.sc.Close(x) }

// joinIter is the nested-loop join: for each outer tuple it re-Opens
// the inner step (whose parameterized bounds or hash probe key see the
// outer bindings through the env) and streams the matches. With an
// index inner this is an index-nested-loop join; with a hash inner
// the build happens on the first Open only.
type joinIter struct {
	outer     rowSource
	sc        stepCands
	slab      tupleSlab
	cur       tuple
	haveOuter bool
}

func (j *joinIter) Open(x *execCtx) error {
	j.haveOuter = false
	return j.outer.Open(x)
}

func (j *joinIter) Next(x *execCtx) (tuple, bool, error) {
	for {
		if !j.haveOuter {
			t, ok, err := j.outer.Next(x)
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			j.haveOuter = true
			if err := j.sc.Open(x); err != nil {
				return nil, false, err
			}
		}
		c, ok, err := j.sc.Next(x)
		if err != nil {
			return nil, false, err
		}
		if ok {
			out := j.slab.next()
			copy(out, j.cur)
			out[j.sc.s.slot] = c
			return out, true, nil
		}
		j.haveOuter = false
	}
}

func (j *joinIter) Close(x *execCtx) {
	j.sc.Close(x)
	j.outer.Close(x)
}

// emitOnce handles a FROM-less query: the oracle emits exactly one
// row without consulting the WHERE clause (bug-compatible on purpose).
type emitOnce struct{ done bool }

func (e *emitOnce) Open(*execCtx) error { e.done = false; return nil }
func (e *emitOnce) Next(*execCtx) (tuple, bool, error) {
	if e.done {
		return nil, false, nil
	}
	e.done = true
	return tuple{}, true, nil
}
func (e *emitOnce) Close(*execCtx) {}

// --- execution ---

// Execute runs the plan against r with the given event arguments and
// returns a result identical to query.Eval's. Plans with parallel
// steps run the staged fan-out pipeline (parallel.go); canonicalJoin
// makes both production orders emit identically.
func (p *Plan) Execute(r query.Reader, args map[string]datum.Value) (*query.Result, error) {
	x := &execCtx{r: r, env: query.NewEnv(r, args), args: args}
	tuples, err := p.canonicalJoin(x)
	if err != nil {
		return nil, err
	}
	return p.emit(x, tuples)
}

// canonicalJoin materializes the join output in the oracle's emission
// order (see the package comment). Tuples are unique by OID vector, so
// an unstable sort restores that order exactly. Most plans produce it
// already — every extent scan, merged shard scan, index probe and
// order-keeping join stage yields OIDs ascending — so one linear check
// usually replaces the sort.
func (p *Plan) canonicalJoin(x *execCtx) ([]tuple, error) {
	var tuples []tuple
	var err error
	if p.maxPar() > 1 {
		tuples, err = p.joinParallel(x)
	} else {
		tuples, err = p.joinSerial(x)
	}
	if err != nil {
		return nil, err
	}
	if !slices.IsSortedFunc(tuples, compareTuples) {
		slices.SortFunc(tuples, compareTuples)
	}
	return tuples, nil
}

// joinSerial materializes the join output through the volcano tree.
func (p *Plan) joinSerial(x *execCtx) ([]tuple, error) {
	var root rowSource
	if len(p.steps) == 0 {
		root = &emitOnce{}
	} else {
		slab := tupleSlab{width: len(p.vars)}
		root = &baseIter{sc: stepCands{s: p.steps[0]}, slab: slab}
		for _, s := range p.steps[1:] {
			root = &joinIter{outer: root, sc: stepCands{s: s}, slab: slab}
		}
	}
	if err := root.Open(x); err != nil {
		return nil, err
	}
	var tuples []tuple
	for {
		t, ok, err := root.Next(x)
		if err != nil {
			root.Close(x)
			return nil, err
		}
		if !ok {
			break
		}
		tuples = append(tuples, t)
	}
	root.Close(x)
	return tuples, nil
}

// emit is the oracle's run() tail: select/aggregate per tuple in
// canonical order, then ORDER BY's stable sort, then LIMIT.
func (p *Plan) emit(x *execCtx, tuples []tuple) (*query.Result, error) {
	q := p.Query
	res := &query.Result{}
	for _, s := range q.Select {
		res.Columns = append(res.Columns, s.Name())
	}

	aggMode := len(q.Select) > 0 && query.HasAggregate(q.Select[0].Expr)
	var aggs []*query.AggState
	if aggMode {
		// Parallel plans try chunked partial aggregation first; it
		// hands back exact merged states or declines (order-sensitive
		// accumulation), in which case the serial loop below runs
		// over the same canonically sorted tuples — bit-identical
		// either way.
		if p.maxPar() > 1 {
			merged, ok, err := p.parallelAggregate(x, tuples)
			if err != nil {
				return nil, err
			}
			if ok {
				aggs = merged
				tuples = nil // already accumulated; skip the loop
			}
		}
		if aggs == nil {
			aggs = make([]*query.AggState, len(q.Select))
			for i := range aggs {
				aggs[i] = &query.AggState{}
			}
		}
	}

	var sortKeys [][]datum.Value
	for _, t := range tuples {
		for slot, c := range t {
			x.env.Bind(p.vars[slot], c.oid, c.attrs)
		}
		if aggMode {
			for i, s := range q.Select {
				if err := x.env.Accumulate(aggs[i], s.Expr); err != nil {
					return nil, err
				}
			}
			continue
		}
		row := make([]datum.Value, len(q.Select))
		for i, s := range q.Select {
			v, err := x.env.Eval(s.Expr)
			if err != nil && !errors.Is(err, query.ErrNoValue) {
				return nil, err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		if len(q.OrderBy) > 0 {
			keys := make([]datum.Value, len(q.OrderBy))
			for i, o := range q.OrderBy {
				v, err := x.env.Eval(o.Expr)
				if err != nil && !errors.Is(err, query.ErrNoValue) {
					return nil, err
				}
				keys[i] = v
			}
			sortKeys = append(sortKeys, keys)
		}
	}

	if aggMode {
		row := make([]datum.Value, len(q.Select))
		for i, s := range q.Select {
			v, err := query.FinishAggregate(aggs[i], s.Expr)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
	}
	if len(q.OrderBy) > 0 {
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
			for c, o := range q.OrderBy {
				if datum.Equal(ka[c], kb[c]) {
					continue
				}
				less := datum.Less(ka[c], kb[c])
				if o.Desc {
					return !less
				}
				return less
			}
			return false
		})
		sorted := make([][]datum.Value, len(res.Rows))
		for i, j := range idx {
			sorted[i] = res.Rows[j]
		}
		res.Rows = sorted
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}
