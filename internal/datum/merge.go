package datum

// MergeByOID visits the elements of runs, each already in ascending
// OID order, as one ascending sequence, stopping early when visit
// returns false. Elements with equal OIDs in different runs are
// visited in run order. It is a k-way merge over a binary heap of run
// heads: merging n elements from k runs costs O(n log k) comparisons
// and allocates only the k-entry heap, which holds no pointers, so
// reordering it costs no GC write barriers.
func MergeByOID[T any](runs [][]T, oid func(T) OID, visit func(T) bool) {
	h := make(mergeHeap, 0, len(runs))
	next := make([]int, len(runs)) // per run: index of its head
	for i, r := range runs {
		if len(r) > 0 {
			h = append(h, mergeHead{oid: oid(r[0]), run: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h) > 1 {
		r := h[0].run
		if !visit(runs[r][next[r]]) {
			return
		}
		next[r]++
		if next[r] == len(runs[r]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			h[0].oid = oid(runs[r][next[r]])
		}
		h.down(0)
	}
	if len(h) == 1 {
		r := h[0].run
		for _, x := range runs[r][next[r]:] {
			if !visit(x) {
				return
			}
		}
	}
}

// mergeHead is one run's cursor in MergeByOID's heap: the run and the
// OID of its current head.
type mergeHead struct {
	oid OID
	run int
}

type mergeHeap []mergeHead

func (h mergeHeap) before(i, j int) bool {
	return h[i].oid < h[j].oid || (h[i].oid == h[j].oid && h[i].run < h[j].run)
}

func (h mergeHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h.before(l, least) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h.before(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
