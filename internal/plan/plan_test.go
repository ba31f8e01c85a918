package plan

import (
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/datum"
	"repro/internal/query"
)

// fakeReader is a test double for query.Reader + Catalog +
// ShardScanner over an in-memory class map. Its index can be made to
// lie: LookupRange may return extra candidates (false positives), or
// report ok=false even though the catalog advertised the index (a
// vanished index). Counters are atomic: parallel plan stages probe
// and fetch from worker goroutines.
type fakeReader struct {
	classes map[string][]cand
	indexes map[string]bool        // "Class.attr" has an index
	lies    map[string][]datum.OID // extra OIDs LookupRange returns for "Class.attr"
	vanish  bool                   // LookupRange always answers ok=false

	scans, lookups, fetches atomic.Int64
}

func newFake() *fakeReader {
	return &fakeReader{
		classes: map[string][]cand{},
		indexes: map[string]bool{},
		lies:    map[string][]datum.OID{},
	}
}

func (f *fakeReader) add(class string, oid datum.OID, attrs map[string]datum.Value) {
	rows := append(f.classes[class], cand{oid: oid, attrs: attrs})
	sort.Slice(rows, func(a, b int) bool { return rows[a].oid < rows[b].oid })
	f.classes[class] = rows
}

func (f *fakeReader) index(class, attr string) { f.indexes[class+"."+attr] = true }

func (f *fakeReader) ScanClass(class string, fn func(datum.OID, map[string]datum.Value) bool) error {
	f.scans.Add(1)
	for _, r := range f.classes[class] {
		if !fn(r.oid, r.attrs) {
			break
		}
	}
	return nil
}

// fakeShards partitions the fake store for the parallel executor's
// shard fan-out, mirroring the real store's OID-hash sharding.
const fakeShards = 4

func (f *fakeReader) ShardCount() int { return fakeShards }

func (f *fakeReader) PinShards() (uint64, func()) { return 1, func() {} }

func (f *fakeReader) ScanClassShard(si int, class string, _ uint64, fn func(datum.OID, map[string]datum.Value) bool) error {
	f.scans.Add(1)
	for _, r := range f.classes[class] {
		if int(r.oid)&(fakeShards-1) != si {
			continue
		}
		if !fn(r.oid, r.attrs) {
			break
		}
	}
	return nil
}

// inRange mimics a btree probe: rows whose attr value falls in
// [lo, hi] under datum.Compare. Missing and null attrs have no index
// entry; cross-kind values never match the bounds (and would be
// rejected by the residual anyway).
func (f *fakeReader) inRange(class, attr string, lo, hi *datum.Value, loInc, hiInc bool) []datum.OID {
	var out []datum.OID
	for _, r := range f.classes[class] {
		v, ok := r.attrs[attr]
		if !ok || v.IsNull() {
			continue
		}
		if lo != nil {
			c, err := datum.Compare(v, *lo)
			if err != nil || c < 0 || (c == 0 && !loInc) {
				continue
			}
		}
		if hi != nil {
			c, err := datum.Compare(v, *hi)
			if err != nil || c > 0 || (c == 0 && !hiInc) {
				continue
			}
		}
		out = append(out, r.oid)
	}
	return out
}

func (f *fakeReader) LookupRange(class, attr string, lo, hi *datum.Value, loInc, hiInc bool) ([]datum.OID, bool) {
	key := class + "." + attr
	if f.vanish || !f.indexes[key] {
		return nil, false
	}
	f.lookups.Add(1)
	oids := f.inRange(class, attr, lo, hi, loInc, hiInc)
	// Inject the configured false positives, then restore the btree
	// contract: sorted, deduplicated candidates.
	oids = append(oids, f.lies[key]...)
	sort.Slice(oids, func(a, b int) bool { return oids[a] < oids[b] })
	dedup := oids[:0]
	for i, o := range oids {
		if i == 0 || o != oids[i-1] {
			dedup = append(dedup, o)
		}
	}
	return dedup, true
}

func (f *fakeReader) Fetch(oid datum.OID) (string, map[string]datum.Value, bool) {
	f.fetches.Add(1)
	for class, rows := range f.classes {
		for _, r := range rows {
			if r.oid == oid {
				return class, r.attrs, true
			}
		}
	}
	return "", nil, false
}

func (f *fakeReader) ExtentEstimate(class string) int { return len(f.classes[class]) }

func (f *fakeReader) HasIndex(class, attr string) bool { return f.indexes[class+"."+attr] }

func (f *fakeReader) IndexEstimate(class, attr string, lo, hi *datum.Value, loInc, hiInc bool, limit int) (int, bool) {
	if !f.indexes[class+"."+attr] {
		return 0, false
	}
	n := len(f.inRange(class, attr, lo, hi, loInc, hiInc))
	if n > limit {
		n = limit
	}
	return n, true
}

// checkAll runs src through the tree-walk oracle and through every
// admissible plan — the default build, each option-constrained build,
// and the full enumeration — asserting bit-identical results. It
// returns the oracle result for additional direct assertions.
func checkAll(t *testing.T, src string, r query.Reader, args map[string]datum.Value) *query.Result {
	t.Helper()
	q := query.MustParse(src)
	want, werr := query.Eval(q, r, args)

	cat, _ := r.(Catalog)
	// forcePar removes the cardinality floor so even these tiny
	// fixtures exercise the parallel scan/join/aggregate paths.
	forcePar := func(n int) Options { return Options{Parallelism: n, ParallelThreshold: -1} }
	plans := []*Plan{
		Build(q, cat, args, Options{}),
		Build(q, cat, args, Options{DisableIndex: true}),
		Build(q, cat, args, Options{DisableHash: true}),
		Build(q, cat, args, Options{DisableIndex: true, DisableHash: true}),
		Build(q, cat, args, Options{ForceOrder: true}),
		Build(q, nil, args, Options{}), // no statistics
		Build(q, cat, args, forcePar(4)),
		Build(q, cat, args, Options{Parallelism: 4, ParallelThreshold: -1, DisableIndex: true}),
		Build(q, cat, args, Options{Parallelism: 2, ParallelThreshold: -1, DisableHash: true}),
		Build(q, cat, args, Options{Parallelism: 8, ParallelThreshold: -1, ForceOrder: true}),
		Build(q, nil, args, forcePar(3)), // parallel without statistics
	}
	plans = append(plans, Enumerate(q, cat, args, Options{})...)
	plans = append(plans, Enumerate(q, cat, args, forcePar(4))...)

	// The readers hand the executor their stored attribute maps, not
	// copies; no plan may write into one.
	var before string
	if f, ok := r.(*fakeReader); ok {
		before = f.fingerprint()
	}
	for i, p := range plans {
		if werr == nil {
			assertCanonical(t, p, r, args)
		}
		got, gerr := p.Execute(r, args)
		if werr != nil {
			if gerr == nil {
				t.Fatalf("plan %d: oracle failed (%v) but plan succeeded\n%s", i, werr, p.Explain())
			}
			continue
		}
		if gerr != nil {
			t.Fatalf("plan %d: %v\n%s", i, gerr, p.Explain())
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("plan %d diverges from tree-walk\nquery: %s\nwant: %+v\ngot:  %+v\n%s",
				i, src, want, got, p.Explain())
		}
	}
	// The engine's one-call path.
	if werr == nil {
		got, err := Run(q, r, args)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Run diverges from tree-walk\nwant: %+v\ngot:  %+v", want, got)
		}
	}
	if f, ok := r.(*fakeReader); ok && f.fingerprint() != before {
		t.Fatalf("query %s wrote into a reader-owned attribute map", src)
	}
	return want
}

// assertCanonical is the debug assertion behind canonicalJoin's
// unstable sort and its skip-if-sorted check: the join output it
// returns must be strictly ascending by OID vector — sorted, and with
// no two tuples sharing a vector, so stability could never matter.
func assertCanonical(t *testing.T, p *Plan, r query.Reader, args map[string]datum.Value) {
	t.Helper()
	tuples, err := p.canonicalJoin(&execCtx{r: r, env: query.NewEnv(r, args), args: args})
	if err != nil {
		t.Fatalf("canonicalJoin: %v\n%s", err, p.Explain())
	}
	for i := 1; i < len(tuples); i++ {
		if compareTuples(tuples[i-1], tuples[i]) >= 0 {
			t.Fatalf("join output not strictly ascending at %d: %v then %v\n%s",
				i, oidVector(tuples[i-1]), oidVector(tuples[i]), p.Explain())
		}
	}
}

func oidVector(t tuple) []datum.OID {
	out := make([]datum.OID, len(t))
	for i, c := range t {
		out[i] = c.oid
	}
	return out
}

// fingerprint encodes every row the fake holds.
func (f *fakeReader) fingerprint() string {
	var b []byte
	classes := make([]string, 0, len(f.classes))
	for c := range f.classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		b = append(b, c...)
		for _, r := range f.classes[c] {
			b = append(b, r.oid.String()...)
			b = datum.EncodeMap(b, r.attrs)
		}
	}
	return string(b)
}

func stockFake() *fakeReader {
	f := newFake()
	f.index("Stock", "price")
	for i, price := range []float64{10, 20, 30, 40, 50} {
		f.add("Stock", datum.OID(i+1), map[string]datum.Value{
			"symbol": datum.Str(string(rune('A' + i))),
			"price":  datum.Float(price),
		})
	}
	return f
}

func TestLyingIndexFalsePositivesRefiltered(t *testing.T) {
	f := stockFake()
	f.add("Bond", 7, map[string]datum.Value{"price": datum.Float(30)})
	// The index lies three ways: a live Stock whose price does not
	// match (OID 2, price 20), a dangling OID, and an object of
	// another class whose attribute would match.
	f.lies["Stock.price"] = []datum.OID{2, 7, 99}

	got := checkAll(t, "select s from Stock s where s.price = 30", f, nil)
	if len(got.Rows) != 1 || !datum.Equal(got.Rows[0][0], datum.ID(3)) {
		t.Fatalf("rows = %+v, want exactly #3", got.Rows)
	}
	if f.lookups.Load() == 0 {
		t.Fatal("index never probed: the lying-index test exercised nothing")
	}

	// The default plan with statistics must actually take the index
	// path (5-row extent, selective equality).
	q := query.MustParse("select s from Stock s where s.price = 30")
	p := Build(q, f, nil, Options{})
	if p.steps[0].access != accessIndex {
		t.Fatalf("default plan access = %v, want index scan\n%s", p.steps[0].access, p.Explain())
	}
}

func TestVanishedIndexDegradesToExtentScan(t *testing.T) {
	f := stockFake()
	f.vanish = true // catalog still advertises the index; probes fail

	got := checkAll(t, "select s from Stock s where s.price >= 40", f, nil)
	if len(got.Rows) != 2 {
		t.Fatalf("rows = %+v, want #4 and #5", got.Rows)
	}

	q := query.MustParse("select s from Stock s where s.price >= 40")
	p := Build(q, f, nil, Options{})
	if p.steps[0].access != accessIndex {
		t.Fatalf("plan should still choose the index (the catalog lied): %v", p.steps[0].access)
	}
	f.scans.Store(0)
	res, err := p.Execute(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || f.scans.Load() == 0 {
		t.Fatalf("rows = %d scans = %d; want a degraded extent scan with 2 rows", len(res.Rows), f.scans.Load())
	}
}

// joinFake builds two classes for join tests; keys go in as raw
// values so callers control nulls, kinds, and duplicates.
func joinFake(sKeys, hKeys []datum.Value) *fakeReader {
	f := newFake()
	f.index("S", "k")
	for i, v := range sKeys {
		attrs := map[string]datum.Value{"tag": datum.Int(int64(i))}
		if v.Kind() != datum.KindList { // KindList marks "attribute absent"
			attrs["k"] = v
		}
		f.add("S", datum.OID(i+1), attrs)
	}
	for i, v := range hKeys {
		attrs := map[string]datum.Value{"tag": datum.Int(int64(100 + i))}
		if v.Kind() != datum.KindList {
			attrs["k"] = v
		}
		f.add("H", datum.OID(i+101), attrs)
	}
	return f
}

var absent = datum.List() // sentinel: leave the attribute off the row

func TestJoinEdgeCases(t *testing.T) {
	const join = "select s, h from S s, H h where s.k = h.k"
	cases := []struct {
		name   string
		s, h   []datum.Value
		nTuple int
	}{
		{"both empty", nil, nil, 0},
		{"empty build side", nil, []datum.Value{datum.Int(1)}, 0},
		{"empty probe side", []datum.Value{datum.Int(1)}, nil, 0},
		{"null keys never join", []datum.Value{datum.Null(), datum.Int(1)}, []datum.Value{datum.Null(), datum.Int(2)}, 0},
		{"missing keys never join", []datum.Value{absent, datum.Int(3)}, []datum.Value{absent, datum.Int(3)}, 1},
		{"duplicate keys multiply", []datum.Value{datum.Int(7), datum.Int(7)}, []datum.Value{datum.Int(7), datum.Int(7), datum.Int(7)}, 6},
		{"int and float keys cross-match", []datum.Value{datum.Int(2)}, []datum.Value{datum.Float(2)}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkAll(t, join, joinFake(tc.s, tc.h), nil)
			if len(got.Rows) != tc.nTuple {
				t.Fatalf("join rows = %d, want %d: %+v", len(got.Rows), tc.nTuple, got.Rows)
			}
		})
	}
}

func TestHashKeyPrecisionCollision(t *testing.T) {
	// 2^53 and 2^53+1 are distinct int64s with the same float64 image,
	// so they land in the same hash bucket (datum keys encode numerics
	// through float64). The residual equality compares int/int exactly
	// and must keep them apart.
	big := int64(1) << 53
	f := joinFake(
		[]datum.Value{datum.Int(big), datum.Int(big + 1)},
		[]datum.Value{datum.Int(big), datum.Float(float64(big))},
	)
	got := checkAll(t, "select s.tag, h.tag from S s, H h where s.k = h.k", f, nil)
	// Int(2^53) matches both H rows; Int(2^53+1) vs Float(2^53) also
	// matches (cross-kind comparison goes through float64, which
	// rounds). Only the exact int/int pair Int(2^53+1) = Int(2^53)
	// must NOT match.
	want := 3
	if len(got.Rows) != want {
		t.Fatalf("rows = %d, want %d: %+v", len(got.Rows), want, got.Rows)
	}
	for _, r := range got.Rows {
		if r[0].AsInt() == 1 && r[1].AsInt() == 100 {
			t.Fatalf("collision leaked: Int(2^53+1) joined Int(2^53): %+v", got.Rows)
		}
	}
}

func TestIdentityPinEdgeCases(t *testing.T) {
	f := stockFake()
	f.add("Bond", 7, map[string]datum.Value{"price": datum.Float(1)})
	const pin = "select s.symbol from Stock s where s = event.target"
	cases := []struct {
		name string
		args map[string]datum.Value
		rows int
	}{
		{"missing event arg", nil, 0},
		{"non-oid pin value", map[string]datum.Value{"target": datum.Int(3)}, 0},
		{"dangling oid", map[string]datum.Value{"target": datum.ID(999)}, 0},
		{"wrong class", map[string]datum.Value{"target": datum.ID(7)}, 0},
		{"live oid", map[string]datum.Value{"target": datum.ID(3)}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkAll(t, pin, f, tc.args)
			if len(got.Rows) != tc.rows {
				t.Fatalf("rows = %d, want %d", len(got.Rows), tc.rows)
			}
		})
	}
}

func TestAggregateEdgeCases(t *testing.T) {
	f := newFake()
	const agg = "select count(*) as n, sum(s.x) as t, avg(s.x) as a, min(s.x) as lo, max(s.x) as hi from S s"

	// Empty input: count 0, sum 0, avg/min/max null.
	got := checkAll(t, agg, f, nil)
	want := []datum.Value{datum.Int(0), datum.Int(0), datum.Null(), datum.Null(), datum.Null()}
	if !reflect.DeepEqual(got.Rows[0], want) {
		t.Fatalf("empty aggregate = %+v, want %+v", got.Rows[0], want)
	}

	// Nulls and missing values are skipped; duplicates count.
	f.add("S", 1, map[string]datum.Value{"x": datum.Int(4)})
	f.add("S", 2, map[string]datum.Value{"x": datum.Null()})
	f.add("S", 3, map[string]datum.Value{})
	f.add("S", 4, map[string]datum.Value{"x": datum.Int(4)})
	f.add("S", 5, map[string]datum.Value{"x": datum.Int(10)})
	got = checkAll(t, agg, f, nil)
	want = []datum.Value{datum.Int(5), datum.Int(18), datum.Float(6), datum.Int(4), datum.Int(10)}
	if !reflect.DeepEqual(got.Rows[0], want) {
		t.Fatalf("aggregate = %+v, want %+v", got.Rows[0], want)
	}

	// Aggregate over a join with an empty side stays a single row.
	got = checkAll(t, "select count(*) as n from S s, H h where s.x = h.x", f, nil)
	if len(got.Rows) != 1 || !datum.Equal(got.Rows[0][0], datum.Int(0)) {
		t.Fatalf("join aggregate over empty side = %+v", got.Rows)
	}
}

func TestOrderByAndLimitMatchOracle(t *testing.T) {
	f := stockFake()
	checkAll(t, "select s.symbol, s.price from Stock s order by s.price desc limit 3", f, nil)
	checkAll(t, "select s.symbol from Stock s where s.price > 15 order by s.symbol", f, nil)
	checkAll(t, "select s, h from Stock s, Stock h where s.price <= h.price order by h.price desc, s.price limit 7", f, nil)
}

func TestFromlessQueryEmitsOneRow(t *testing.T) {
	// The parser requires FROM, but rule internals may hand-build
	// queries; the oracle emits one row without consulting WHERE, and
	// the executor is deliberately bug-compatible.
	q := &query.Query{
		Select: []query.SelectItem{{Expr: &query.EventRef{Name: "x"}}},
		Where:  &query.Literal{Val: datum.Bool(false)},
		Limit:  -1,
	}
	f := newFake()
	args := map[string]datum.Value{"x": datum.Int(42)}
	want, err := query.Eval(q, f, args)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(q, f, args, Options{}).Execute(f, args)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("want %+v, got %+v", want, got)
	}
	if len(got.Rows) != 1 {
		t.Fatalf("FROM-less query rows = %d, want 1", len(got.Rows))
	}
}

// saaFake models the SAA benchmark shape: a small Stock class and a
// large Holding class with a selective owner index.
func saaFake(holdings int) *fakeReader {
	f := newFake()
	f.index("Stock", "symbol")
	f.index("Holding", "owner")
	for i := 0; i < 20; i++ {
		f.add("Stock", datum.OID(i+1), map[string]datum.Value{
			"symbol": datum.Str("SYM" + string(rune('A'+i))),
			"price":  datum.Float(float64(10 + i)),
		})
	}
	for i := 0; i < holdings; i++ {
		f.add("Holding", datum.OID(1000+i), map[string]datum.Value{
			"owner":  datum.Str("owner" + string(rune('a'+i%26))),
			"symbol": datum.Str("SYM" + string(rune('A'+i%20))),
			"qty":    datum.Int(int64(i)),
		})
	}
	return f
}

func TestCostModelReordersSelectiveJoin(t *testing.T) {
	f := saaFake(520)
	const src = "select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner"
	args := map[string]datum.Value{"owner": datum.Str("ownerc")}

	q := query.MustParse(src)
	p := Build(q, f, args, Options{})
	if p.steps[0].from.Class != "Holding" || p.steps[0].access != accessIndex {
		t.Fatalf("statistics should drive Holding-first via the owner index:\n%s", p.Explain())
	}
	if p.steps[1].from.Class != "Stock" || p.steps[1].access == accessExtent {
		t.Fatalf("inner Stock should not be a bare extent scan:\n%s", p.Explain())
	}

	// Without a catalog the planner keeps the syntactic order.
	p = Build(q, nil, args, Options{})
	if p.steps[0].from.Class != "Stock" {
		t.Fatalf("no-statistics plan must keep syntactic order:\n%s", p.Explain())
	}
	// ForceOrder pins the syntactic order even with statistics.
	p = Build(q, f, args, Options{ForceOrder: true})
	if p.steps[0].from.Class != "Stock" {
		t.Fatalf("ForceOrder ignored:\n%s", p.Explain())
	}
	// DisableIndex forbids every index access.
	p = Build(q, f, args, Options{DisableIndex: true})
	for _, s := range p.steps {
		if s.access == accessIndex || s.access == accessPin {
			t.Fatalf("DisableIndex produced %v:\n%s", s.access, p.Explain())
		}
	}

	got := checkAll(t, src, f, args)
	if len(got.Rows) == 0 {
		t.Fatal("selective join found no rows; fixture is broken")
	}
}

func TestEnumerateCoversAccessPathsAndOrders(t *testing.T) {
	f := saaFake(60)
	q := query.MustParse("select s, h from Stock s, Holding h where s.symbol = h.symbol and h.owner = event.owner")
	plans := Enumerate(q, f, map[string]datum.Value{"owner": datum.Str("ownera")}, Options{})
	if len(plans) < 4 {
		t.Fatalf("enumeration too small: %d plans", len(plans))
	}
	var sawHash, sawIndex, sawHoldingFirst, sawStockFirst bool
	for _, p := range plans {
		for _, s := range p.steps {
			switch s.access {
			case accessHash:
				sawHash = true
			case accessIndex:
				sawIndex = true
			}
		}
		if p.steps[0].from.Class == "Holding" {
			sawHoldingFirst = true
		} else {
			sawStockFirst = true
		}
	}
	if !sawHash || !sawIndex || !sawHoldingFirst || !sawStockFirst {
		t.Fatalf("enumeration misses shapes: hash=%v index=%v holdingFirst=%v stockFirst=%v",
			sawHash, sawIndex, sawHoldingFirst, sawStockFirst)
	}
}

func TestExplainOutput(t *testing.T) {
	f := saaFake(520)
	q := query.MustParse("select s.symbol, h.qty from Stock s, Holding h " +
		"where s.symbol = h.symbol and h.owner = event.owner and h.qty > 3 " +
		"order by h.qty desc limit 5")
	text := Build(q, f, map[string]datum.Value{"owner": datum.Str("ownerb")}, Options{}).Explain()
	for _, want := range []string{
		"plan (cost=", "statistics", "index scan", "Holding", "filter:",
		"canonical sort", "order by", "limit 5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain output missing %q:\n%s", want, text)
		}
	}
	// No-statistics explain says so.
	text = Build(q, nil, nil, Options{}).Explain()
	if !strings.Contains(text, "no statistics") {
		t.Fatalf("explain should flag missing statistics:\n%s", text)
	}
}
