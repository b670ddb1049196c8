package compss

import (
	"slices"
	"testing"
)

// idCount is the number of ids s holds: the sum of its ranges' widths.
func idCount(s idSet) int {
	n := 0
	for _, r := range s {
		n += r.hi - r.lo
	}
	return n
}

func TestIDSet(t *testing.T) {
	set := func(rs ...int) idSet { // lo, hi pairs
		var s idSet
		for i := 0; i < len(rs); i += 2 {
			s = append(s, idRange{rs[i], rs[i+1]})
		}
		return s
	}
	for _, c := range []struct {
		name string
		s    idSet
		op   func(*idSet)
		want idSet
	}{
		{"add to empty", nil, func(s *idSet) { s.add(3) }, set(3, 4)},
		{"add the next id", set(0, 3), func(s *idSet) { s.add(3) }, set(0, 4)},
		{"add the id before", set(4, 6), func(s *idSet) { s.add(3) }, set(3, 6)},
		{"add a held id", set(0, 6), func(s *idSet) { s.add(2) }, set(0, 6)},
		{"add apart", set(0, 2, 8, 9), func(s *idSet) { s.add(5) }, set(0, 2, 5, 6, 8, 9)},
		{"add fills a gap", set(0, 2, 3, 5), func(s *idSet) { s.add(2) }, set(0, 5)},
		{"addRange empty", set(0, 2), func(s *idSet) { s.addRange(5, 5) }, set(0, 2)},
		{"addRange touching below", set(5, 8), func(s *idSet) { s.addRange(2, 5) }, set(2, 8)},
		{"addRange touching above", set(5, 8), func(s *idSet) { s.addRange(8, 9) }, set(5, 9)},
		{"addRange overlapping", set(5, 8), func(s *idSet) { s.addRange(7, 10) }, set(5, 10)},
		{"addRange inside", set(5, 8), func(s *idSet) { s.addRange(6, 7) }, set(5, 8)},
		{"addRange spanning", set(1, 2, 4, 5, 7, 8, 12, 13), func(s *idSet) { s.addRange(3, 9) }, set(1, 2, 3, 9, 12, 13)},
		{"addRange spanning and touching", set(1, 2, 4, 5, 7, 8), func(s *idSet) { s.addRange(2, 7) }, set(1, 8)},
		{"addRange before all", set(4, 5), func(s *idSet) { s.addRange(0, 2) }, set(0, 2, 4, 5)},
		{"addSet", set(0, 2, 10, 12), func(s *idSet) { s.addSet(set(2, 4, 6, 7, 9, 10)) }, set(0, 4, 6, 7, 9, 12)},
		{"addSet empty", set(0, 2), func(s *idSet) { s.addSet(nil) }, set(0, 2)},
		{"removeRange splits", set(0, 10), func(s *idSet) { s.removeRange(3, 5) }, set(0, 3, 5, 10)},
		{"removeRange at the low edge", set(2, 10), func(s *idSet) { s.removeRange(0, 4) }, set(4, 10)},
		{"removeRange at the high edge", set(2, 10), func(s *idSet) { s.removeRange(8, 12) }, set(2, 8)},
		{"removeRange one id at each edge", set(2, 4, 6, 8), func(s *idSet) { s.removeRange(3, 7) }, set(2, 3, 7, 8)},
		{"removeRange across several", set(0, 3, 5, 7, 9, 11, 13, 20), func(s *idSet) { s.removeRange(2, 15) }, set(0, 2, 15, 20)},
		{"removeRange whole ranges", set(0, 3, 5, 7, 9, 11), func(s *idSet) { s.removeRange(5, 11) }, set(0, 3)},
		{"removeRange no overlap between", set(0, 3, 7, 9), func(s *idSet) { s.removeRange(3, 7) }, set(0, 3, 7, 9)},
		{"removeRange no overlap above", set(0, 3), func(s *idSet) { s.removeRange(3, 9) }, set(0, 3)},
		{"removeRange no overlap below", set(4, 6), func(s *idSet) { s.removeRange(0, 4) }, set(4, 6)},
		{"removeRange empty", set(0, 6), func(s *idSet) { s.removeRange(3, 3) }, set(0, 6)},
		{"removeRange from empty", nil, func(s *idSet) { s.removeRange(0, 3) }, nil},
		{"removeRange the whole set", set(1, 3, 5, 9), func(s *idSet) { s.removeRange(0, 10) }, set()},
		{"removeRange exactly the whole set", set(1, 3, 5, 9), func(s *idSet) { s.removeRange(1, 9) }, set()},
	} {
		s := slices.Clone(c.s)
		c.op(&s)
		if !slices.Equal(s, c.want) {
			t.Errorf("%s: %v, want %v", c.name, s, c.want)
			continue
		}
		for id := -2; id < 24; id++ {
			in := false
			for _, r := range c.want {
				in = in || r.lo <= id && id < r.hi
			}
			if s.has(id) != in {
				t.Errorf("%s: %v.has(%d) = %v", c.name, s, id, !in)
			}
		}
	}
}
