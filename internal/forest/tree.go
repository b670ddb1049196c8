package forest

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"taskml/internal/mat"
)

// TreeParams configures a single CART tree.
type TreeParams struct {
	// MaxDepth bounds the tree. Default 16.
	MaxDepth int
	// MinSamplesSplit is the smallest node that may split. Default 2.
	MinSamplesSplit int
	// MaxFeatures is the number of features sampled per split; 0 selects
	// √d, the random-forest default.
	MaxFeatures int
}

func (p TreeParams) withDefaults() TreeParams {
	if p.MaxDepth == 0 {
		p.MaxDepth = 16
	}
	if p.MinSamplesSplit < 2 {
		p.MinSamplesSplit = 2
	}
	return p
}

// Node is one node of a decision tree. Leaves carry the class probability
// distribution of their training samples — "the leaves of the decision
// trees are the probability distribution of those samples that fulfill the
// conditions required by all the nodes in the path".
type Node struct {
	// Leaf marks terminal nodes.
	Leaf bool
	// Probs is the class distribution at a leaf.
	Probs []float64
	// Feature and Threshold define the split: x[Feature] <= Threshold goes
	// left.
	Feature   int
	Threshold float64
	Left      *Node
	Right     *Node
}

// Depth returns the tree height below (and including) n.
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return 1 + l
	}
	return 1 + r
}

// CountNodes returns the number of nodes in the subtree.
func (n *Node) CountNodes() int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return 1 + n.Left.CountNodes() + n.Right.CountNodes()
}

// leafNode builds a leaf from the label histogram of idx.
func leafNode(y []int, idx []int, nClasses int) *Node {
	probs := make([]float64, nClasses)
	for _, i := range idx {
		probs[y[i]]++
	}
	if len(idx) > 0 {
		inv := 1 / float64(len(idx))
		for c := range probs {
			probs[c] *= inv
		}
	}
	return &Node{Leaf: true, Probs: probs}
}

// giniOf computes the Gini impurity of a label histogram.
func giniOf(counts []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / total
		g -= p * p
	}
	return g
}

// Split is the outcome of a single best-split search.
type Split struct {
	// Found is false when no impurity-reducing split exists.
	Found     bool
	Feature   int
	Threshold float64
	Left      []int
	Right     []int
}

// rankTable orders every column of a TrainSet once, so no split search
// sorts. rank[f*rows+i] is row i's dense rank among column f's distinct
// non-NaN values, −0 and +0 being one value, or −1 for a NaN; vals[f] are
// those values ascending; nan[f] says column f has a NaN.
type rankTable struct {
	rank []int32
	vals [][]float64
	nan  []bool
}

// rankColumns builds x's rank table. A matrix without rows has nothing to
// rank, whatever width it claims.
func rankColumns(x *mat.Dense) rankTable {
	n := x.Rows
	if n == 0 {
		return rankTable{}
	}
	t := rankTable{rank: make([]int32, len(x.Data)), vals: make([][]float64, x.Cols), nan: make([]bool, x.Cols)}
	keys, rows := make([]uint64, 2*n), make([]int32, 2*n)
	vals := make([]float64, 0, n)
	for f := range t.vals {
		rank, k := t.rank[f*n:(f+1)*n], 0
		for i := range rank {
			v := x.Data[i*x.Cols+f]
			if math.IsNaN(v) {
				rank[i] = -1
				continue
			}
			// v+0 makes −0 +0; flipping the sign bit of a positive float and
			// every bit of a negative one orders the bits as the floats.
			b := math.Float64bits(v + 0)
			keys[k], rows[k] = b^(uint64(int64(b)>>63)|1<<63), int32(i)
			k++
		}
		t.nan[f] = k < n
		sorted, order := radixSort(keys[:k], rows[:k], keys[n:n+k], rows[n:n+k])
		vals = vals[:0]
		for j, key := range sorted {
			if j == 0 || key != sorted[j-1] {
				vals = append(vals, x.Data[int(order[j])*x.Cols+f])
			}
			rank[order[j]] = int32(len(vals) - 1)
		}
		t.vals[f] = slices.Clone(vals)
	}
	return t
}

// radixSort sorts keys ascending and rows with them, one stable counting
// pass a byte; tk and tr are scratch of the same lengths. It returns
// whichever pair holds the result.
func radixSort(keys []uint64, rows []int32, tk []uint64, tr []int32) ([]uint64, []int32) {
	for shift := 0; shift < 64 && len(keys) > 1; shift += 8 {
		var start [257]int
		for _, k := range keys {
			start[k>>shift&0xff+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for j, k := range keys {
			b := k >> shift & 0xff
			tk[start[b]], tr[start[b]] = k, rows[j]
			start[b]++
		}
		keys, rows, tk, tr = tk, tr, keys, rows
	}
	return keys, rows
}

// splitter is the scratch of split searches over one TrainSet, sized once
// and reused by every node of a tree.
type splitter struct {
	ts       *TrainSet
	nClasses int
	nFeat    int
	feats    []int     // the feature permutation
	counts   []float64 // parent, left and right class counts
	hist     []int32   // the node's rows by (rank, class)
	occ      []uint64  // one bit per rank the node's rows take
}

func newSplitter(ts *TrainSet, nClasses int, p TreeParams) *splitter {
	d, nFeat, maxVals := ts.X.Cols, p.MaxFeatures, 0
	if nFeat <= 0 {
		nFeat = max(int(math.Sqrt(float64(d))), 1)
	}
	for _, v := range ts.ranks.vals {
		maxVals = max(maxVals, len(v))
	}
	return &splitter{
		ts: ts, nClasses: nClasses, nFeat: min(nFeat, d),
		feats: make([]int, d), counts: make([]float64, 3*nClasses),
		hist: make([]int32, maxVals*nClasses), occ: make([]uint64, (maxVals+63)/64),
	}
}

// search finds the Gini-optimal binary split of rows over nFeat randomly
// sampled features: midpoints of consecutive distinct values in ascending
// order, features in sampled order, the first best wins. A feature with a
// NaN among the rows' values has no order to scan and offers no threshold.
func (s *splitter) search(rows []int, rng *rand.Rand) (feature int, threshold float64, found bool) {
	for i := range s.feats { // rng.Perm(d), drawn into scratch
		j := rng.Intn(i + 1)
		s.feats[i], s.feats[j] = s.feats[j], i
	}
	y, t, nc, m := s.ts.Y, &s.ts.ranks, s.nClasses, s.ts.X.Rows
	parent, left, right := s.counts[:nc], s.counts[nc:2*nc], s.counts[2*nc:]
	clear(parent)
	for _, i := range rows {
		parent[y[i]]++
	}
	total := float64(len(rows))
	parentGini := giniOf(parent, total)
	if parentGini == 0 {
		return 0, 0, false
	}
	best := parentGini - 1e-12
	for _, f := range s.feats[:s.nFeat] {
		rank := t.rank[f*m : (f+1)*m]
		if t.nan[f] && slices.ContainsFunc(rows, func(i int) bool { return rank[i] < 0 }) {
			continue
		}
		for _, i := range rows {
			r := rank[i]
			s.hist[int(r)*nc+y[i]]++
			s.occ[r>>6] |= 1 << (r & 63)
		}
		// Walk the node's ranks ascending, emptying the histogram as it goes:
		// the rows below each rank are the left side of a candidate split.
		clear(left)
		vals, nl, prev := t.vals[f], 0, 0
		for w, word := range s.occ[:(len(vals)+63)/64] {
			s.occ[w] = 0
			for ; word != 0; word &= word - 1 {
				r := w<<6 | bits.TrailingZeros64(word)
				if nl > 0 {
					nr := total - float64(nl)
					for c := range right {
						right[c] = parent[c] - left[c]
					}
					score := (float64(nl)*giniOf(left, float64(nl)) + nr*giniOf(right, nr)) / total
					if score < best {
						best, feature, threshold, found = score, f, (vals[prev]+vals[r])/2, true
					}
				}
				h := s.hist[r*nc : (r+1)*nc]
				for c, k := range h {
					left[c] += float64(k)
					nl += int(k)
				}
				clear(h)
				prev = r
			}
		}
	}
	return feature, threshold, found
}

// BestSplit searches the Gini-optimal binary split of the samples idx of ts
// (see splitter.search) and returns the samples of each side in idx order.
func BestSplit(ts *TrainSet, idx []int, nClasses int, p TreeParams, rng *rand.Rand) Split {
	f, thr, found := newSplitter(ts, nClasses, p).search(idx, rng)
	if !found {
		return Split{}
	}
	// A midpoint of adjacent floats may round up, so the comparison decides.
	sp := Split{Found: true, Feature: f, Threshold: thr, Left: make([]int, 0, len(idx)), Right: make([]int, 0, len(idx))}
	for _, i := range idx {
		if ts.X.Data[i*ts.X.Cols+f] <= thr {
			sp.Left = append(sp.Left, i)
		} else {
			sp.Right = append(sp.Right, i)
		}
	}
	return sp
}

// BuildTree grows a CART tree on the samples idx of ts (nil means all rows).
// idx is copied once; the copy is partitioned in place as the tree grows.
func BuildTree(ts *TrainSet, idx []int, nClasses int, p TreeParams, rng *rand.Rand) *Node {
	p = p.withDefaults()
	rows := slices.Clone(idx)
	if idx == nil {
		rows = make([]int, ts.X.Rows)
		for i := range rows {
			rows[i] = i
		}
	}
	return newSplitter(ts, nClasses, p).grow(rows, p, rng, 0)
}

func (s *splitter) grow(rows []int, p TreeParams, rng *rand.Rand, depth int) *Node {
	if depth >= p.MaxDepth || len(rows) < p.MinSamplesSplit {
		return leafNode(s.ts.Y, rows, s.nClasses)
	}
	f, thr, found := s.search(rows, rng)
	nl := 0
	for j, i := range rows {
		if found && s.ts.X.Data[i*s.ts.X.Cols+f] <= thr {
			rows[nl], rows[j] = i, rows[nl]
			nl++
		}
	}
	if nl == 0 || nl == len(rows) {
		return leafNode(s.ts.Y, rows, s.nClasses)
	}
	return &Node{Feature: f, Threshold: thr, Left: s.grow(rows[:nl], p, rng, depth+1), Right: s.grow(rows[nl:], p, rng, depth+1)}
}

// PredictProbs walks one sample down the tree to its leaf distribution.
func (n *Node) PredictProbs(row []float64) []float64 {
	cur := n
	for !cur.Leaf {
		if row[cur.Feature] <= cur.Threshold {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	return cur.Probs
}

// PredictLabel returns the argmax class of the sample's leaf.
func (n *Node) PredictLabel(row []float64) int {
	probs := n.PredictProbs(row)
	best := 0
	for c, p := range probs {
		if p > probs[best] {
			best = c
		}
	}
	return best
}

// Validate checks structural invariants of the tree (used by property
// tests): internal nodes have two children, leaf distributions sum to ~1.
func (n *Node) Validate(nClasses int) error {
	if n == nil {
		return fmt.Errorf("forest: nil node")
	}
	if n.Leaf {
		if len(n.Probs) != nClasses {
			return fmt.Errorf("forest: leaf has %d probs, want %d", len(n.Probs), nClasses)
		}
		var s float64
		for _, p := range n.Probs {
			if p < 0 || p > 1 {
				return fmt.Errorf("forest: leaf prob %v outside [0,1]", p)
			}
			s += p
		}
		if s != 0 && math.Abs(s-1) > 1e-9 {
			return fmt.Errorf("forest: leaf probs sum to %v", s)
		}
		return nil
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("forest: internal node missing children")
	}
	if err := n.Left.Validate(nClasses); err != nil {
		return err
	}
	return n.Right.Validate(nClasses)
}
