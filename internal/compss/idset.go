package compss

import (
	"slices"
	"sort"
)

// idSet is a set of task ids held as sorted, disjoint, non-touching
// half-open ranges. What a context records arrives nearly in id order — its
// own submissions, the tasks it synchronised on, a barrier's 0..n — so the
// set stays a few ranges however many ids it holds: a server that submits and
// synchronises a batch at a time keeps one range, not one entry a batch, and
// a barrier is one range, not one entry a task.
type idSet []idRange

type idRange struct{ lo, hi int }

// has reports whether id is in the set.
func (s idSet) has(id int) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].hi > id })
	return i < len(s) && s[i].lo <= id
}

func (s *idSet) add(id int) { s.addRange(id, id+1) }

// addRange adds the ids lo..hi-1, merging every range it touches.
func (s *idSet) addRange(lo, hi int) {
	if lo >= hi {
		return
	}
	r := *s
	if n := len(r); n > 0 && r[n-1].hi == lo { // the common case: the next id
		r[n-1].hi = hi
		return
	}
	i := sort.Search(len(r), func(i int) bool { return r[i].hi >= lo })
	j := i
	for ; j < len(r) && r[j].lo <= hi; j++ {
		lo, hi = min(lo, r[j].lo), max(hi, r[j].hi)
	}
	*s = slices.Replace(r, i, j, idRange{lo, hi})
}

// addSet adds every id of o.
func (s *idSet) addSet(o idSet) {
	for _, r := range o {
		s.addRange(r.lo, r.hi)
	}
}

// removeRange removes the ids lo..hi-1, splitting a range it cuts inside.
func (s *idSet) removeRange(lo, hi int) {
	r := *s
	i := sort.Search(len(r), func(i int) bool { return r[i].hi > lo })
	j := i
	for j < len(r) && r[j].lo < hi {
		j++
	}
	if lo >= hi || i == j {
		return
	}
	var keep [2]idRange
	k := keep[:0]
	if r[i].lo < lo {
		k = append(k, idRange{r[i].lo, lo})
	}
	if r[j-1].hi > hi {
		k = append(k, idRange{hi, r[j-1].hi})
	}
	*s = slices.Replace(r, i, j, k...)
}
