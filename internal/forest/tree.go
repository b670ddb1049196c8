package forest

import (
	"fmt"
	"math"
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

// BestSplit searches the Gini-optimal binary split of the samples idx,
// scanning MaxFeatures randomly sampled features: midpoints of consecutive
// distinct values in ascending order, features in sampled order, the first
// best wins. A feature with a NaN among the node's values has no order to
// scan and offers no threshold.
func BestSplit(x *mat.Dense, y []int, idx []int, nClasses int, p TreeParams, rng *rand.Rand) Split {
	p = p.withDefaults()
	nFeat := p.MaxFeatures
	if nFeat <= 0 {
		nFeat = int(math.Sqrt(float64(x.Cols)))
		if nFeat < 1 {
			nFeat = 1
		}
	}
	if nFeat > x.Cols {
		nFeat = x.Cols
	}
	feats := rng.Perm(x.Cols)[:nFeat]

	total := float64(len(idx))
	counts := make([]float64, 3*nClasses)
	parentCounts, leftCounts, rightCounts := counts[:nClasses], counts[nClasses:2*nClasses], counts[2*nClasses:]
	for _, i := range idx {
		parentCounts[y[i]]++
	}
	parentGini := giniOf(parentCounts, total)
	if parentGini == 0 {
		return Split{}
	}

	// Group the samples by class: rows[first[c]:first[c+1]] are class c's
	// offsets into x.Data, so a gather fills vals with one run per class.
	// Sorting each run and merging the run heads visits the values in
	// ascending order, the class of each known from its run.
	bounds := make([]int, 2*nClasses+1)
	first, head := bounds[:nClasses+1], bounds[nClasses+1:]
	for c, n := range parentCounts {
		first[c+1] = first[c] + int(n)
	}
	copy(head, first)
	ints := make([]int, 2*len(idx)+1)
	rows, ends := ints[:len(idx)], ints[len(idx):]
	for _, i := range idx {
		rows[head[y[i]]] = i * x.Cols
		head[y[i]]++
	}
	floats := make([]float64, 2*len(idx))
	vals, tmp := floats[:len(idx)], floats[len(idx):]

	best := Split{}
	bestScore := parentGini - 1e-12
	for _, f := range feats {
		for k, off := range rows {
			vals[k] = x.Data[off+f]
		}
		if slices.ContainsFunc(vals, math.IsNaN) {
			continue
		}
		for c := range head {
			sortRun(vals[first[c]:first[c+1]], tmp, ends)
		}
		copy(head, first)
		clear(leftCounts)
		// A round moves every run's copies of v left and finds the next value.
		for v, next, nl := math.Inf(-1), 0.0, 0; nl < len(idx); v = next {
			next = math.Inf(1)
			for c, h := range head {
				for ; h < first[c+1] && vals[h] == v; h++ {
					leftCounts[c]++
					nl++
				}
				if head[c] = h; h < first[c+1] && vals[h] < next {
					next = vals[h]
				}
			}
			if nl == 0 || nl == len(idx) {
				continue
			}
			nr := total - float64(nl)
			for c := range rightCounts {
				rightCounts[c] = parentCounts[c] - leftCounts[c]
			}
			score := (float64(nl)*giniOf(leftCounts, float64(nl)) + nr*giniOf(rightCounts, nr)) / total
			if score < bestScore {
				bestScore = score
				best.Found = true
				best.Feature = f
				best.Threshold = (v + next) / 2
			}
		}
	}
	if !best.Found {
		return best
	}
	// A midpoint of adjacent floats may round up, so the comparison decides.
	best.Left, best.Right = make([]int, 0, len(idx)), make([]int, 0, len(idx))
	for _, i := range idx {
		if x.Data[i*x.Cols+best.Feature] <= best.Threshold {
			best.Left = append(best.Left, i)
		} else {
			best.Right = append(best.Right, i)
		}
	}
	return best
}

// sortRun sorts v, which holds no NaN, ascending. A long run is first spread
// over len(v) equal-width buckets between its extremes: the spread is
// monotone, so only the order inside a bucket is left to slices.Sort, and
// without heavy ties or outliers that is a value or two. tmp and ends are
// scratch of at least len(v) and len(v)+1.
func sortRun(v, tmp []float64, ends []int) {
	n, lo, hi, scale := len(v), math.Inf(1), math.Inf(-1), 0.0
	if n >= 32 {
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		scale = float64(n-1) / (hi - lo)
	}
	if !(scale > 0) || math.IsInf(scale, 0) { // short, constant, or too wide or narrow to scale
		slices.Sort(v)
		return
	}
	ends = ends[:n+1]
	clear(ends)
	for _, x := range v {
		ends[int((x-lo)*scale)+1]++
	}
	for b := 1; b < n; b++ {
		ends[b] += ends[b-1] // bucket b starts where b-1 ends
	}
	for _, x := range v {
		b := int((x - lo) * scale)
		tmp[ends[b]] = x
		ends[b]++
	}
	start := 0
	for _, end := range ends[:n] {
		slices.Sort(tmp[start:end])
		start = end
	}
	copy(v, tmp)
}

// BuildTree grows a CART tree on the samples idx (nil means all rows).
func BuildTree(x *mat.Dense, y []int, idx []int, nClasses int, p TreeParams, rng *rand.Rand) *Node {
	p = p.withDefaults()
	if idx == nil {
		idx = make([]int, x.Rows)
		for i := range idx {
			idx[i] = i
		}
	}
	return buildRec(x, y, idx, nClasses, p, rng, 0)
}

func buildRec(x *mat.Dense, y []int, idx []int, nClasses int, p TreeParams, rng *rand.Rand, depth int) *Node {
	if depth >= p.MaxDepth || len(idx) < p.MinSamplesSplit {
		return leafNode(y, idx, nClasses)
	}
	sp := BestSplit(x, y, idx, nClasses, p, rng)
	if !sp.Found || len(sp.Left) == 0 || len(sp.Right) == 0 {
		return leafNode(y, idx, nClasses)
	}
	return &Node{
		Feature:   sp.Feature,
		Threshold: sp.Threshold,
		Left:      buildRec(x, y, sp.Left, nClasses, p, rng, depth+1),
		Right:     buildRec(x, y, sp.Right, nClasses, p, rng, depth+1),
	}
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
