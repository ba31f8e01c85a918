package datum

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

type mergeItem struct {
	oid OID
	run int
}

func TestMergeByOIDMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		runs := make([][]mergeItem, rng.Intn(6))
		var all []mergeItem
		for r := range runs {
			n := rng.Intn(12)
			oid := OID(0)
			for i := 0; i < n; i++ {
				oid += OID(rng.Intn(3)) // duplicates across and within runs
				runs[r] = append(runs[r], mergeItem{oid: oid, run: r})
			}
			all = append(all, runs[r]...)
		}
		// Equal OIDs come out in run order: a stable sort of the
		// run-by-run concatenation.
		sort.SliceStable(all, func(i, j int) bool { return all[i].oid < all[j].oid })
		var got []mergeItem
		MergeByOID(runs, func(x mergeItem) OID { return x.oid }, func(x mergeItem) bool {
			got = append(got, x)
			return true
		})
		if len(all) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, all) {
			t.Fatalf("round %d: merged %v, want %v", round, got, all)
		}
	}
}

func TestMergeByOIDStopsEarly(t *testing.T) {
	runs := [][]OID{{1, 4, 7}, {2, 5}, {3, 6}}
	var got []OID
	MergeByOID(runs, func(o OID) OID { return o }, func(o OID) bool {
		got = append(got, o)
		return o < 5
	})
	if want := []OID{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
}
