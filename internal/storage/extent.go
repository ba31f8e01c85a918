// Class extents: per shard and class, the OID-ascending sequence of
// object entries a scan walks.
//
// Membership is a superset of the live rows: an entry joins the
// extent of every class one of its records (committed or not) has
// carried, and leaves only when the entry itself leaves the heap (GC
// of a dead chain, an aborted create, a recovery tombstone). resolve
// filters tombstones, invisible versions and class changes.
//
// Layout and publication. An extentSeq is a backing array whose first
// n slots are published; readers load the current extentSeq through
// one atomic pointer and its length through one atomic load, take no
// lock, and treat the published prefix as immutable. Writers hold the
// shard mutex. OIDs come from a monotone allocator, so nearly every
// insert is an append: it fills the slot just past the published
// length and then raises the length, so a reader can never see a
// half-written slot. Only an out-of-order insert, an append into a
// full array, or a removal builds a new array and swaps the pointer;
// a reader still holding the old one keeps a consistent older view.
package storage

import (
	"sort"
	"sync/atomic"
)

// extent is one class's slice of one shard's extent.
type extent struct {
	cur atomic.Pointer[extentSeq]
}

// extentSeq is one published layout of an extent: ents[:n] holds the
// members in ascending OID order; slots past n belong to the writer.
type extentSeq struct {
	ents []*mvEntry
	n    atomic.Int64
}

// entries returns the published members, in ascending OID order.
// Lock-free; the returned slice is never written again.
func (x *extent) entries() []*mvEntry {
	q := x.cur.Load()
	if q == nil {
		return nil
	}
	return q.ents[:q.n.Load()]
}

// insert adds e, which must not be a member, at its OID position.
// Caller holds the shard mutex.
func (x *extent) insert(e *mvEntry) {
	q := x.cur.Load()
	cur := x.entries()
	n := len(cur)
	i := n
	if n > 0 && cur[n-1].oid > e.oid {
		i = sort.Search(n, func(i int) bool { return cur[i].oid >= e.oid })
	} else if q != nil && n < len(q.ents) {
		q.ents[n] = e
		q.n.Store(int64(n + 1))
		return
	}
	ents := make([]*mvEntry, n+1, 2*n+8)
	copy(ents, cur[:i])
	ents[i] = e
	copy(ents[i+1:], cur[i:])
	x.publish(ents)
}

// remove drops e from the extent, reporting whether it was a member.
// Caller holds the shard mutex.
func (x *extent) remove(e *mvEntry) bool {
	cur := x.entries()
	n := len(cur)
	i := sort.Search(n, func(i int) bool { return cur[i].oid >= e.oid })
	if i == n || cur[i] != e {
		return false
	}
	ents := make([]*mvEntry, n-1, 2*n+8)
	copy(ents, cur[:i])
	copy(ents[i:], cur[i+1:])
	x.publish(ents)
	return true
}

// publish makes ents (spare capacity included) the extent's layout.
func (x *extent) publish(ents []*mvEntry) {
	q := &extentSeq{ents: ents[:cap(ents)]}
	q.n.Store(int64(len(ents)))
	x.cur.Store(q)
}

// extentOf returns class's extent in sh, or nil. Lock-free.
func (sh *shard) extentOf(class string) *extent {
	if v, ok := sh.extents.Load(class); ok {
		return v.(*extent)
	}
	return nil
}

// inExtent reports whether e is a member of class's extent. Caller
// holds the shard mutex.
func (e *mvEntry) inExtent(class string) bool {
	for _, c := range e.classes {
		if c == class {
			return true
		}
	}
	return false
}

// extentAdd makes e a member of class's extent in sh (a no-op when it
// already is). Caller holds sh.mu exclusively.
func (s *Store) extentAdd(sh *shard, class string, e *mvEntry) {
	if e.inExtent(class) {
		return
	}
	x := sh.extentOf(class)
	if x == nil {
		x = &extent{}
		sh.extents.Store(class, x)
	}
	x.insert(e)
	e.classes = append(e.classes, class)
	s.extentCounter(class).Add(1)
}

// dropEntry removes e from the heap: from the objects map and from
// every extent it belongs to, keeping the cardinality counters in
// step. Caller holds sh.mu exclusively.
func (s *Store) dropEntry(sh *shard, e *mvEntry) {
	sh.objects.Delete(e.oid)
	for _, class := range e.classes {
		if x := sh.extentOf(class); x != nil && x.remove(e) {
			s.extentCounter(class).Add(-1)
		}
	}
	e.classes = nil
}
