package knn

import (
	"errors"
	"fmt"

	"taskml/internal/compss"
	"taskml/internal/costs"
	"taskml/internal/dsarray"
	"taskml/internal/mat"
	"taskml/internal/par"
)

// Weighting selects how neighbor votes are combined, matching the method's
// parameters in the paper: "'uniform' to have uniform weights ... or
// 'distance' to weight points by the inverse of their distance", plus "a
// user-defined function which accepts an array of distances, and returns an
// array of the same shape containing the weights".
type Weighting int

const (
	// Uniform weights every neighbor equally.
	Uniform Weighting = iota
	// Distance weights neighbors by inverse distance.
	Distance
	// Custom applies Params.WeightFn.
	Custom
)

// Params configures the classifier.
type Params struct {
	// K is the number of neighbors checked per query. Default 5 (the
	// paper's Figure 6 workflow).
	K int
	// Weights selects the vote weighting. Default Uniform.
	Weights Weighting
	// WeightFn maps a slice of distances to a same-length slice of weights;
	// required when Weights is Custom.
	WeightFn func(dists []float64) []float64
}

func (p Params) withDefaults() Params {
	if p.K == 0 {
		p.K = 5
	}
	return p
}

// nnBlock is the fitted per-row-block structure: the stored samples, their
// labels, the block's global row offset (so neighbor indices are
// dataset-global), and the cached squared row norms that let queries use the
// GEMM distance expansion ‖q−t‖² = ‖q‖² + ‖t‖² − 2·q·t.
type nnBlock struct {
	x      *mat.Dense
	labels []int
	offset int
	norms  []float64
}

// ErrNotFitted is returned by queries before Fit.
var ErrNotFitted = errors.New("knn: model is not fitted")

// KNN is the distributed k-nearest-neighbors classifier.
type KNN struct {
	Params Params

	fitted []*compss.Future // one *nnBlock per training row block
	dims   int
	nTrain int
	brows  int
}

// Fit stores the training row blocks: one task per row block, exactly the
// dislib structure ("launches a fit from the scikit-learn NN into each row
// block").
func (m *KNN) Fit(x, y *dsarray.Array) error {
	if x.Rows() != y.Rows() {
		return fmt.Errorf("knn: %d samples vs %d labels", x.Rows(), y.Rows())
	}
	if y.Cols() != 1 {
		return fmt.Errorf("knn: labels must have 1 column, got %d", y.Cols())
	}
	if x.NumRowBlocks() != y.NumRowBlocks() {
		return fmt.Errorf("knn: x has %d row blocks, y has %d", x.NumRowBlocks(), y.NumRowBlocks())
	}
	p := m.Params.withDefaults()
	if p.Weights == Custom && p.WeightFn == nil {
		return errors.New("knn: Custom weighting requires WeightFn")
	}
	tc := x.Ctx()
	m.fitted = make([]*compss.Future, x.NumRowBlocks())
	for i := range m.fitted {
		offset := i * x.BlockRows()
		rows := x.RowBlockRows(i)
		m.fitted[i] = tc.Submit(compss.Opts{
			Name:     "nn_fit",
			Cost:     costs.KNNFit(rows, x.Cols()),
			OutBytes: costs.Bytes(rows, x.Cols()+1),
		}, func(_ *compss.TaskCtx, args []any) (any, error) {
			blk := args[0].(*mat.Dense)
			lbl := args[1].(*mat.Dense)
			if blk.Rows != lbl.Rows {
				return nil, fmt.Errorf("knn: block rows %d vs labels %d", blk.Rows, lbl.Rows)
			}
			// The norms go through the same Dot kernel as the GEMM path, so
			// d² is exactly zero for identical vectors: the three terms of
			// the expansion are then bitwise-equal dot products.
			norms := mat.RowNormsInto(make([]float64, blk.Rows), blk)
			return &nnBlock{x: blk, labels: dsarray.LabelsToInts(lbl), offset: offset, norms: norms}, nil
		}, x.RowBlock(i), y.RowBlock(i))
	}
	m.dims = x.Cols()
	m.nTrain = x.Rows()
	m.brows = x.BlockRows()
	return nil
}

// neighbor is one candidate (squared distance, global index, label).
type neighbor struct {
	d2    float64
	idx   int
	label int
}

// worseNeighbor reports whether a ranks after b: larger squared distance, or
// equal distance and larger global index. This is the inverse of the
// (d2, idx)-ascending result order, so a worst-first heap rooted at the
// worst of the current k-best reproduces a full sort's top-k exactly,
// tie-breaks included.
func worseNeighbor(a, b neighbor) bool {
	if a.d2 != b.d2 {
		return a.d2 > b.d2
	}
	return a.idx > b.idx
}

// kheap is a bounded worst-first binary heap over neighbors. Offering a
// candidate against a full heap costs O(log k) and leaves the k best seen so
// far, instead of the O(n log n) sort over every candidate the naive scan
// needed.
type kheap []neighbor

func (h *kheap) offer(n neighbor, k int) {
	nb := *h
	if len(nb) < k {
		nb = append(nb, n)
		i := len(nb) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worseNeighbor(nb[i], nb[p]) {
				break
			}
			nb[i], nb[p] = nb[p], nb[i]
			i = p
		}
		*h = nb
		return
	}
	if k == 0 || !worseNeighbor(nb[0], n) {
		return // no better than the current worst of the k best
	}
	nb[0] = n
	i := 0
	for {
		w := i
		if l := 2*i + 1; l < len(nb) && worseNeighbor(nb[l], nb[w]) {
			w = l
		}
		if r := 2*i + 2; r < len(nb) && worseNeighbor(nb[r], nb[w]) {
			w = r
		}
		if w == i {
			break
		}
		nb[i], nb[w] = nb[w], nb[i]
		i = w
	}
}

// queryBlock finds the k nearest neighbors of each row in q across every
// fitted block, using the blocked-GEMM distance formulation:
// ‖q−t‖² = ‖q‖² + ‖t‖² − 2·q·tᵀ. The cross term is one GEMM per fitted
// block (cache-blocked and parallel), the norms are cached at fit time,
// and per-row k-best selection goes through a bounded heap.
//
// The hot-path allocations are pooled: one mat.Scratch panel sized for the
// widest fitted block holds every per-block distance product in turn, the
// query norms live in a pooled vector, and all q.Rows heaps share one
// backing array (each heap gets a cap-k window, which offer never
// outgrows). Only the returned neighbor lists survive the call.
func queryBlock(q *mat.Dense, fitted []*nnBlock, k int) [][]neighbor {
	qn := mat.RowNormsInto(mat.Scratch.Get(q.Rows), q)
	maxRows := 0
	for _, fb := range fitted {
		maxRows = max(maxRows, fb.x.Rows)
	}
	panel := mat.Scratch.GetDense(q.Rows, maxRows)

	backing := make([]neighbor, q.Rows*k)
	heaps := make([]kheap, q.Rows)
	for r := range heaps {
		heaps[r] = kheap(backing[r*k : r*k : (r+1)*k])
	}
	for _, fb := range fitted {
		g := &mat.Dense{Rows: q.Rows, Cols: fb.x.Rows, Data: panel.Data[:q.Rows*fb.x.Rows]}
		mat.MulABtInto(g, q, fb.x)
		// Rows are independent (disjoint heaps, read-only g), so the
		// selection sweep parallelises; grain keeps a chunk at a few
		// thousand candidate updates.
		grain := 1 + (1<<13)/(fb.x.Rows+1)
		par.For(q.Rows, grain, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				grow := g.Row(r)
				for i, gv := range grow {
					d2 := qn[r] + fb.norms[i] - 2*gv
					if d2 < 0 {
						d2 = 0 // guard the expansion against negative round-off
					}
					heaps[r].offer(neighbor{d2: d2, idx: fb.offset + i, label: fb.labels[i]}, k)
				}
			}
		})
	}
	mat.Scratch.PutDense(panel)
	mat.Scratch.Put(qn)
	out := make([][]neighbor, q.Rows)
	for r := range heaps {
		nb := []neighbor(heaps[r])
		sortNeighbors(nb)
		out[r] = nb
	}
	return out
}

// sortNeighbors orders nb best-first ((d2, idx) ascending) with an
// insertion sort: k is small and the closure-free form keeps the per-row
// finalisation allocation-free, unlike sort.Slice.
func sortNeighbors(nb []neighbor) {
	for i := 1; i < len(nb); i++ {
		j := i
		for j > 0 && worseNeighbor(nb[j-1], nb[j]) {
			nb[j-1], nb[j] = nb[j], nb[j-1]
			j--
		}
	}
}

// vote combines the neighbors of one query into a predicted label.
func vote(nb []neighbor, p Params) int {
	var weights []float64
	switch p.Weights {
	case Distance:
		weights = make([]float64, len(nb))
		for i, n := range nb {
			d := n.d2
			if d <= 1e-18 {
				// Exact match dominates, scikit-learn style.
				return n.label
			}
			weights[i] = 1 / d
		}
	case Custom:
		dists := make([]float64, len(nb))
		for i, n := range nb {
			dists[i] = n.d2
		}
		weights = p.WeightFn(dists)
	default:
		// Uniform: every vote counts 1; no weight vector needed.
	}
	tally := map[int]float64{}
	for i, n := range nb {
		if weights == nil {
			tally[n.label]++
		} else {
			tally[n.label] += weights[i]
		}
	}
	best, bestW := 0, -1.0
	for label, w := range tally {
		if w > bestW || (w == bestW && label < best) {
			best, bestW = label, w
		}
	}
	return best
}

// Predict classifies x: one task per query row block, each depending on all
// fitted blocks (Figure 6's fan-in). Returns a 1-column label array with
// x's row blocking.
func (m *KNN) Predict(x *dsarray.Array) (*dsarray.Array, error) {
	if m.fitted == nil {
		return nil, ErrNotFitted
	}
	if x.Cols() != m.dims {
		return nil, fmt.Errorf("knn: %d features, model fitted on %d", x.Cols(), m.dims)
	}
	p := m.Params.withDefaults()
	tc := x.Ctx()
	nrb := x.NumRowBlocks()
	blocks := make([][]*compss.Future, nrb)
	for i := 0; i < nrb; i++ {
		rows := x.RowBlockRows(i)
		blocks[i] = []*compss.Future{tc.Submit(compss.Opts{
			Name:     "nn_predict",
			Cost:     costs.KNNQuery(m.nTrain, rows, m.dims),
			OutBytes: costs.Bytes(rows, 1),
		}, func(_ *compss.TaskCtx, args []any) (any, error) {
			q := args[0].(*mat.Dense)
			fitted := make([]*nnBlock, 0, len(args[1].([]any)))
			for _, v := range args[1].([]any) {
				fitted = append(fitted, v.(*nnBlock))
			}
			neighbors := queryBlock(q, fitted, p.K)
			out := mat.New(q.Rows, 1)
			for r, nb := range neighbors {
				out.Set(r, 0, float64(vote(nb, p)))
			}
			return out, nil
		}, x.RowBlock(i), m.fitted)}
	}
	return dsarray.FromBlocks(tc, blocks, x.Rows(), 1, x.BlockRows(), 1), nil
}

// Score returns the mean accuracy on (x, y).
func (m *KNN) Score(x, y *dsarray.Array) (float64, error) {
	pred, err := m.Predict(x)
	if err != nil {
		return 0, err
	}
	return dsarray.Accuracy(pred, y)
}
