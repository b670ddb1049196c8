package forest

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"taskml/internal/mat"
	"taskml/internal/par"
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

// leafNode builds a leaf from the class histogram of rows, row i counted
// w[i] times, or once when w is nil.
func leafNode(y []int, rows []int, w []int, nClasses int) *Node {
	probs := make([]float64, nClasses)
	n := 0
	for _, i := range rows {
		k := 1
		if w != nil {
			k = w[i]
		}
		probs[y[i]] += float64(k)
		n += k
	}
	if n > 0 {
		inv := 1 / float64(n)
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
		g -= float64(p * p) // rounded: no architecture fuses it (mat's lane contract)
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
// rank, whatever width it claims. Columns are independent — each writes its
// own rank band, values and flag — so they are ranked in a parallel region,
// each goroutine with its own sort scratch.
func rankColumns(x *mat.Dense) rankTable {
	n := x.Rows
	if n == 0 {
		return rankTable{}
	}
	t := rankTable{rank: make([]int32, len(x.Data)), vals: make([][]float64, x.Cols), nan: make([]bool, x.Cols)}
	// A column costs ≈ 8 radix passes over its rows.
	par.ForScratch(x.Cols, 1+(1<<13)/n, func() any { return newRankScratch(n) }, func(any) {}, func(f0, f1 int, s any) {
		for f := f0; f < f1; f++ {
			t.rankColumn(x, f, s.(*rankScratch))
		}
	})
	return t
}

// rankScratch is one goroutine's sort scratch for rankColumn.
type rankScratch struct {
	keys []uint64
	rows []int32
	vals []float64
}

func newRankScratch(n int) *rankScratch {
	return &rankScratch{keys: make([]uint64, 2*n), rows: make([]int32, 2*n), vals: make([]float64, 0, n)}
}

// rankColumn fills column f's rank band, distinct values and NaN flag.
func (t *rankTable) rankColumn(x *mat.Dense, f int, s *rankScratch) {
	n := x.Rows
	keys, rows := s.keys, s.rows
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
	vals := s.vals[:0]
	for j, key := range sorted {
		if j == 0 || key != sorted[j-1] {
			vals = append(vals, x.Data[int(order[j])*x.Cols+f])
		}
		rank[order[j]] = int32(len(vals) - 1)
	}
	t.vals[f] = slices.Clone(vals)
	s.vals = vals
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

// intnBound is what rng.Intn(n) needs of a bound n < 2³¹ to draw without
// dividing: Int31n's rejection bound, and n's reciprocal for the remainder
// (a multiply-shift, exact for 32-bit operands), or the mask n−1 when n is
// a power of two.
type intnBound struct {
	max   uint32 // the largest Int31 accepted; n−1 for a power of two
	recip uint64 // ⌈2⁶⁴/n⌉; 0 for a power of two
}

func newIntnBound(n uint32) intnBound {
	if n&(n-1) == 0 {
		return intnBound{max: n - 1}
	}
	return intnBound{max: 1<<31 - 1 - (1<<31)%n, recip: ^uint64(0)/uint64(n) + 1}
}

// intnBounds returns the bounds of rng.Intn(i+1) for i < d: rng.Perm(d)'s.
func intnBounds(d int) []intnBound {
	b := make([]intnBound, d)
	for i := range b {
		b[i] = newIntnBound(uint32(i + 1))
	}
	return b
}

// intn returns rng.Intn(n) for the n of b, drawing rng's Int31 stream
// exactly as Intn does.
func (b intnBound) intn(rng *rand.Rand, n uint32) int {
	v := uint32(rng.Int31())
	if b.recip == 0 {
		return int(v & b.max)
	}
	for v > b.max {
		v = uint32(rng.Int31())
	}
	r, _ := bits.Mul64(b.recip*uint64(v), uint64(n))
	return int(r)
}

// splitter is the scratch of split searches over one TrainSet, sized once
// and reused by every node of a tree. A node is its distinct rows: fold
// turns a bootstrap's repeats into per-row multiplicities once, and a
// node's size, MinSamplesSplit, the exact bounds and a leaf's Probs count
// samples through them.
type splitter struct {
	ts       *TrainSet
	nClasses int
	nFeat    int
	draws    []intnBound // rng.Perm(d)'s bounds
	feats    []int       // the feature permutation
	w        []int       // w[i]: how many samples row i stands for
	rows     []int       // the samples' distinct rows
	counts   []int       // parent and left class counts
	fcounts  []float64   // class counts as floats, for giniOf
	hist     []int32     // the node's samples by (rank, class)
	occ      []uint64    // one bit per rank the node's rows take
}

func newSplitter(ts *TrainSet, nClasses int, p TreeParams) splitter {
	d, m, nFeat, maxVals := ts.X.Cols, ts.X.Rows, p.MaxFeatures, 0
	if nFeat <= 0 {
		nFeat = max(int(math.Sqrt(float64(d))), 1)
	}
	for _, v := range ts.ranks.vals {
		maxVals = max(maxVals, len(v))
	}
	ints := make([]int, d+2*m+2*nClasses) // feats, w, rows and counts in one allocation
	return splitter{
		ts: ts, nClasses: nClasses, nFeat: min(nFeat, d), draws: intnBounds(d),
		feats: ints[:d], w: ints[d : d+m], rows: ints[d+m : d+2*m : d+2*m], counts: ints[d+2*m:],
		fcounts: make([]float64, 2*nClasses), hist: make([]int32, maxVals*nClasses), occ: make([]uint64, (maxVals+63)/64),
	}
}

// fold adds the samples idx to the row multiplicities and returns the rows
// that have one, ascending.
func (s *splitter) fold(idx []int) []int {
	for _, i := range idx {
		s.w[i]++
	}
	rows := s.rows[:0]
	for i, k := range s.w {
		if k > 0 {
			rows = append(rows, i)
		}
	}
	return rows
}

// The exact pre-filter's bounds. A float score errs from its exact value by
// at most (nc+7)·2⁻⁵³ — giniOf by nc+3 units of roundoff, the weighted sum
// and the division by three more — so two scores compare in floats as they
// do exactly once their exact gap exceeds (nc+7)·2⁻⁵². search prunes a
// candidate only when its gap, (bestA·b − a·bestB)/(bestB·b·total) in its
// integers, exceeds 2^−pruneShift/total ≥ 2⁻³⁹: at most exactRows samples
// keep every integer under 2⁶¹ (n⁵/16), and at most exactClasses classes
// keep 2⁻³⁹ four times over the float error.
const (
	exactRows    = 1 << 13
	exactClasses = 1 << 10
	pruneShift   = 26
)

// scan is one search's running best over a node.
type scan struct {
	total        float64 // the node's samples
	exact        bool    // the node within the exact bounds
	found        bool
	best         float64 // the best's float score, the parent's Gini − 1e-12 before one
	bestA, bestB int64   // the best's exact Q is bestA/bestB
	feature      int
	lo, hi       int32 // the ranks either side of the best's threshold
}

// pruned tells whether a candidate whose exact Q is a/b is worse than the
// best's by more than the float scores can err, so that its float score
// could not win.
func (c *scan) pruned(a, b int64) bool {
	return c.found && c.exact && c.bestA*b-a*c.bestB > c.bestB*b>>pruneShift
}

// offer scores the candidate between ranks lo and hi of feature f in floats
// from its left and right class counts, nl samples left, and keeps it if it
// is a new best.
func (c *scan) offer(left, right []float64, nl float64, a, b int64, f int, lo, hi int32) {
	nr := c.total - nl
	// Each product rounded, as in giniOf.
	score := (float64(nl*giniOf(left, nl)) + float64(nr*giniOf(right, nr))) / c.total
	if score < c.best {
		c.best, c.found, c.bestA, c.bestB, c.feature, c.lo, c.hi = score, true, a, b, f, lo, hi
	}
}

// search finds the Gini-optimal binary split of the node's rows, n samples,
// over nFeat randomly sampled features: midpoints of consecutive distinct
// values in ascending order, features in sampled order, the first best
// wins. A feature with a NaN among the rows' values has no order to scan
// and offers no threshold. It returns the split's feature and threshold,
// and cut, the largest rank of the feature whose value is ≤ the threshold:
// a row goes left exactly when its rank is ≤ cut.
//
// A candidate's score is (total − Q)/total with Q = ΣL²/nl + ΣR²/nr over
// its class counts, which the walk keeps as exact integers as it moves
// rows left. Once a best exists, a candidate whose exact Q is below the
// best's by more than the float scores can err is skipped without
// evaluating its Gini: compared by integer cross-multiplication, its float
// score could not have won the < test. Everything else — ties, exact
// improvements, the candidates before the first best, nodes over the exact
// bounds — takes the float path on float copies of the counts, so every
// chosen split is the one the float search alone would choose.
func (s *splitter) search(rows []int, n int, rng *rand.Rand) (feature int, threshold float64, cut int32, found bool) {
	for i := range s.feats { // rng.Perm(d), drawn into scratch
		j := s.draws[i].intn(rng, uint32(i+1))
		s.feats[i], s.feats[j] = s.feats[j], i
	}
	y, w, t, nc, m := s.ts.Y, s.w, &s.ts.ranks, s.nClasses, s.ts.X.Rows
	parent, fparent := s.counts[:nc], s.fcounts[:nc]
	clear(parent)
	for _, i := range rows {
		parent[y[i]] += w[i]
	}
	for c, k := range parent {
		fparent[c] = float64(k)
	}
	sc := scan{total: float64(n), exact: n <= exactRows && nc <= exactClasses}
	parentGini := giniOf(fparent, sc.total)
	if parentGini == 0 {
		return 0, 0, 0, false
	}
	sc.best = parentGini - 1e-12
	for _, f := range s.feats[:s.nFeat] {
		rank := t.rank[f*m : (f+1)*m]
		if t.nan[f] && slices.ContainsFunc(rows, func(i int) bool { return rank[i] < 0 }) {
			continue
		}
		for _, i := range rows {
			r := rank[i]
			s.hist[int(r)*nc+y[i]] += int32(w[i])
			s.occ[r>>6] |= 1 << (r & 63)
		}
		if nc == 2 {
			s.walk2(&sc, f, int64(parent[0]), int64(parent[1]))
		} else {
			s.walk(&sc, f, int64(n))
		}
	}
	if !sc.found {
		return 0, 0, 0, false
	}
	vals := t.vals[sc.feature]
	threshold = (vals[sc.lo] + vals[sc.hi]) / 2
	// A midpoint of adjacent values may round up to the upper one, or
	// overflow to ±Inf: the cut is where the threshold falls, not lo.
	cut = int32(sort.Search(len(vals), func(j int) bool { return !(vals[j] <= threshold) })) - 1
	return sc.feature, threshold, cut, true
}

// walk visits feature f's ranks that the node's rows take, ascending,
// emptying the histogram as it goes: the rows below each rank are the left
// side of a candidate split. ΣL² and ΣR² move with each rank's counts.
func (s *splitter) walk(sc *scan, f int, n int64) {
	nc, vals := s.nClasses, s.ts.ranks.vals[f]
	parent, left := s.counts[:nc], s.counts[nc:]
	clear(left)
	var nl, sumL2, sumR2 int64 // ΣL², ΣR² of the current candidate
	for _, k := range parent {
		sumR2 += int64(k) * int64(k)
	}
	prev := int32(0)
	for w, word := range s.occ[:(len(vals)+63)/64] {
		s.occ[w] = 0
		for ; word != 0; word &= word - 1 {
			r := int32(w<<6 | bits.TrailingZeros64(word))
			if nl > 0 {
				nr := n - nl
				a, b := sumL2*nr+sumR2*nl, nl*nr
				if !sc.pruned(a, b) {
					fl, fr := s.fcounts[:nc], s.fcounts[nc:]
					for c, k := range left {
						fl[c], fr[c] = float64(k), float64(parent[c]-k)
					}
					sc.offer(fl, fr, float64(nl), a, b, f, prev, r)
				}
			}
			h := s.hist[int(r)*nc : int(r+1)*nc]
			for c, k := range h {
				lc, kk := int64(left[c]), int64(k)
				sumL2 += (2*lc + kk) * kk
				sumR2 += (kk - 2*(int64(parent[c])-lc)) * kk
				left[c] += int(k)
				nl += kk
				h[c] = 0
			}
			prev = r
		}
	}
}

// walk2 is walk for two classes, the left counts in locals.
func (s *splitter) walk2(sc *scan, f int, p0, p1 int64) {
	hist, vals := s.hist, s.ts.ranks.vals[f]
	var l0, l1 int64
	prev := int32(0)
	for w, word := range s.occ[:(len(vals)+63)/64] {
		s.occ[w] = 0
		for ; word != 0; word &= word - 1 {
			r := int32(w<<6 | bits.TrailingZeros64(word))
			if nl := l0 + l1; nl > 0 {
				r0, r1 := p0-l0, p1-l1
				nr := r0 + r1
				a, b := (l0*l0+l1*l1)*nr+(r0*r0+r1*r1)*nl, nl*nr
				if !sc.pruned(a, b) {
					fl, fr := [2]float64{float64(l0), float64(l1)}, [2]float64{float64(r0), float64(r1)}
					sc.offer(fl[:], fr[:], float64(nl), a, b, f, prev, r)
				}
			}
			h := hist[2*r : 2*r+2]
			l0, l1 = l0+int64(h[0]), l1+int64(h[1])
			h[0], h[1] = 0, 0
			prev = r
		}
	}
}

// BestSplit searches the Gini-optimal binary split of the samples idx of ts
// (see splitter.search) and returns the samples of each side in idx order.
func BestSplit(ts *TrainSet, idx []int, nClasses int, p TreeParams, rng *rand.Rand) Split {
	s := newSplitter(ts, nClasses, p)
	f, thr, cut, found := s.search(s.fold(idx), len(idx), rng)
	if !found {
		return Split{}
	}
	rank := ts.ranks.rank[f*ts.X.Rows : (f+1)*ts.X.Rows]
	sp := Split{Found: true, Feature: f, Threshold: thr, Left: make([]int, 0, len(idx)), Right: make([]int, 0, len(idx))}
	for _, i := range idx {
		if rank[i] <= cut {
			sp.Left = append(sp.Left, i)
		} else {
			sp.Right = append(sp.Right, i)
		}
	}
	return sp
}

// BuildTree grows a CART tree on the samples idx of ts (nil means all rows).
// The samples are folded into distinct rows once; the rows are partitioned
// in place as the tree grows.
func BuildTree(ts *TrainSet, idx []int, nClasses int, p TreeParams, rng *rand.Rand) *Node {
	p = p.withDefaults()
	s, n := newSplitter(ts, nClasses, p), len(idx)
	if idx == nil {
		for i := range s.w {
			s.w[i] = 1
		}
		n = len(s.w)
	}
	return s.grow(s.fold(idx), n, p, rng, 0)
}

// grow builds the subtree of rows, n samples.
func (s *splitter) grow(rows []int, n int, p TreeParams, rng *rand.Rand, depth int) *Node {
	if depth >= p.MaxDepth || n < p.MinSamplesSplit {
		return leafNode(s.ts.Y, rows, s.w, s.nClasses)
	}
	f, thr, cut, found := s.search(rows, n, rng)
	if !found {
		return leafNode(s.ts.Y, rows, s.w, s.nClasses)
	}
	m := s.ts.X.Rows
	rank := s.ts.ranks.rank[f*m : (f+1)*m]
	j, nl := 0, 0
	for k, i := range rows {
		if rank[i] <= cut {
			rows[j], rows[k] = i, rows[j]
			j++
			nl += s.w[i]
		}
	}
	if nl == 0 || nl == n {
		return leafNode(s.ts.Y, rows, s.w, s.nClasses)
	}
	return &Node{Feature: f, Threshold: thr, Left: s.grow(rows[:j], nl, p, rng, depth+1), Right: s.grow(rows[j:], n-nl, p, rng, depth+1)}
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
