package forest

import (
	"errors"
	"fmt"
	"math/rand"

	"taskml/internal/compss"
	"taskml/internal/costs"
	"taskml/internal/dsarray"
	"taskml/internal/mat"
	"taskml/internal/randsrc"
)

// Params configures the RandomForest estimator.
type Params struct {
	// Tree configures the individual CART estimators.
	Tree TreeParams
	// NEstimators is the number of trees; the paper's Figure 8 workflow
	// trains 40. Default 10.
	NEstimators int
	// DistrDepth is "the limit of the depth of the tree where the decisions
	// are no longer computed in parallel": node splits down to this depth
	// are individual tasks; each remaining subtree is one task. Default 1.
	DistrDepth int
	// NClasses is the label arity. Default 2 (AF vs Normal).
	NClasses int
	// Seed drives bootstrap sampling and feature subsampling.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.NEstimators == 0 {
		p.NEstimators = 10
	}
	if p.DistrDepth == 0 {
		p.DistrDepth = 1
	}
	if p.NClasses == 0 {
		p.NClasses = 2
	}
	return p
}

// ErrNotFitted is returned by prediction before Fit.
var ErrNotFitted = errors.New("forest: model is not fitted")

// TrainSet is the gathered dataset shipped to the tree tasks. The paper
// observes that RF "is the only algorithm in dislib in which the number of
// blocks and their size does not have a direct impact on the computational
// time and number of tasks created": the workflow gathers the row blocks
// once and the task count depends only on NEstimators and DistrDepth.
// It crosses to worker processes through its codec (codec.go). Build it with
// NewTrainSet, which ranks every column once for all the fold's trees.
type TrainSet struct {
	X *mat.Dense
	Y []int

	ranks rankTable // derived from X, never encoded
}

// NewTrainSet pairs x with one label per row and ranks its columns.
func NewTrainSet(x *mat.Dense, y []int) (*TrainSet, error) {
	if x == nil {
		return nil, errors.New("forest: training set without a matrix")
	}
	if len(y) != x.Rows {
		return nil, fmt.Errorf("forest: %d labels for %d rows", len(y), x.Rows)
	}
	return &TrainSet{X: x, Y: y, ranks: rankColumns(x)}, nil
}

// SplitOut is a distr-depth split task's output.
type SplitOut struct {
	Leaf  *Node // non-nil when the node terminated (pure/small)
	Split Split
}

// RandomForest is the distributed random-forest classifier.
type RandomForest struct {
	Params Params

	trees []*compss.Future // one *Node per estimator
	dims  int
}

// gather concatenates x's row blocks and labels into a single TrainSet
// future (the reduction at the top of Figure 8's workflow).
func gather(x, y *dsarray.Array) *compss.Future {
	tc := x.Ctx()
	var futs []*compss.Future
	for i := 0; i < x.NumRowBlocks(); i++ {
		futs = append(futs, x.RowBlock(i), y.RowBlock(i))
	}
	return tc.SubmitExec(compss.Opts{
		Name:     "rf_gather",
		Exec:     "rf_gather",
		Cost:     costs.Copy(x.Rows(), x.Cols()+1),
		OutBytes: costs.Bytes(x.Rows(), x.Cols()+1),
	}, futs)
}

// Fit builds the forest workflow: a gather task, then per estimator a
// bootstrap task, distr-depth split tasks, one subtree task per frontier
// node, and join tasks assembling the tree.
func (f *RandomForest) Fit(x, y *dsarray.Array) error {
	if x.Rows() != y.Rows() {
		return fmt.Errorf("forest: %d samples vs %d labels", x.Rows(), y.Rows())
	}
	if y.Cols() != 1 {
		return fmt.Errorf("forest: labels must have 1 column, got %d", y.Cols())
	}
	p := f.Params.withDefaults()
	if p.DistrDepth >= p.Tree.withDefaults().MaxDepth {
		return fmt.Errorf("forest: DistrDepth %d must be below MaxDepth %d", p.DistrDepth, p.Tree.withDefaults().MaxDepth)
	}
	tc := x.Ctx()
	data := gather(x, y)
	n, d := x.Rows(), x.Cols()
	f.dims = d

	f.trees = make([]*compss.Future, p.NEstimators)
	for e := 0; e < p.NEstimators; e++ {
		seed := p.Seed + int64(e)*7919
		// Bootstrap sample of row indices.
		boot := tc.SubmitExec(compss.Opts{
			Name:     "rf_bootstrap",
			Exec:     "rf_bootstrap",
			Cost:     costs.Copy(n, 1),
			OutBytes: int64(n * 8),
		}, data, seed)
		f.trees[e] = f.buildDistr(tc, data, boot, seed, 0, n, p)
	}
	return nil
}

// buildDistr recursively submits the distr-depth task structure for one
// node and returns a future resolving to the node's *Node subtree. estN is
// the estimated sample count for cost declaration.
func (f *RandomForest) buildDistr(tc *compss.TaskCtx, data, idx *compss.Future, seed int64, depth, estN int, p Params) *compss.Future {
	tp := p.Tree.withDefaults()
	d := f.dims
	if depth >= p.DistrDepth {
		// One task builds the whole remaining subtree; the TreeParams it
		// ships carry MaxDepth rebased to the remaining depth.
		sub := tp
		sub.MaxDepth = tp.MaxDepth - depth
		return tc.SubmitExec(compss.Opts{
			Name:     "rf_subtree",
			Exec:     "rf_subtree",
			Cost:     costs.TreeFit(estN, d, tp.MaxDepth-depth),
			OutBytes: 4096,
		}, data, idx, seed+int64(depth)*104729, sub, p.NClasses)
	}

	// Split task: one best-split decision computed in parallel with the
	// rest of the level.
	outs := tc.SubmitExecN(compss.Opts{
		Name:     "rf_split",
		Exec:     "rf_split",
		Cost:     costs.TreeFit(estN, d, 1),
		OutBytes: int64(estN * 8),
	}, 3, data, idx, seed+int64(depth)*104729, tp, p.NClasses)

	// Cost estimates for the children model the data-dependent split
	// imbalance of real CART trees: splits are rarely even, so subtree
	// tasks have heavy-tailed durations. This is the load imbalance the
	// paper blames for RF's poor scalability ("the division of the data on
	// the different decision trees can cause some tasks handle considerably
	// more data than other[s]"). The fraction is drawn deterministically
	// per node from the estimator seed; the product is rounded so no
	// architecture fuses it into the sum (mat's lane contract).
	frac := 0.2 + float64(0.6*rand.New(randsrc.New(seed^int64(depth*2654435761))).Float64())
	left := f.buildDistr(tc, data, outs[1], seed*31+1, depth+1, int(frac*float64(estN))+1, p)
	right := f.buildDistr(tc, data, outs[2], seed*31+2, depth+1, int((1-frac)*float64(estN))+1, p)

	return tc.SubmitExec(compss.Opts{
		Name:     "rf_join",
		Exec:     "rf_join",
		Cost:     0,
		OutBytes: 4096,
	}, outs[0], left, right)
}

// Trees synchronises and returns the fitted estimators.
func (f *RandomForest) Trees(tc *compss.TaskCtx) ([]*Node, error) {
	if f.trees == nil {
		return nil, ErrNotFitted
	}
	out := make([]*Node, len(f.trees))
	for i, fut := range f.trees {
		v, err := tc.Get(fut)
		if err != nil {
			return nil, err
		}
		out[i] = v.(*Node)
	}
	return out, nil
}

// Predict classifies x by averaging the per-tree probability distributions
// ("to compute the final prediction of the overall model, the predictions
// of the composing estimators are averaged"), one task per query row block.
func (f *RandomForest) Predict(x *dsarray.Array) (*dsarray.Array, error) {
	if f.trees == nil {
		return nil, ErrNotFitted
	}
	if x.Cols() != f.dims {
		return nil, fmt.Errorf("forest: %d features, model fitted on %d", x.Cols(), f.dims)
	}
	p := f.Params.withDefaults()
	tc := x.Ctx()
	nrb := x.NumRowBlocks()
	blocks := make([][]*compss.Future, nrb)
	for i := 0; i < nrb; i++ {
		rows := x.RowBlockRows(i)
		blocks[i] = []*compss.Future{tc.SubmitExec(compss.Opts{
			Name:     "rf_predict",
			Exec:     "rf_predict",
			Cost:     costs.TreePredict(rows, p.Tree.withDefaults().MaxDepth) * float64(p.NEstimators),
			OutBytes: costs.Bytes(rows, 1),
		}, x.RowBlock(i), f.trees, p.NClasses)}
	}
	return dsarray.FromBlocks(tc, blocks, x.Rows(), 1, x.BlockRows(), 1), nil
}

// Score returns the mean accuracy on (x, y).
func (f *RandomForest) Score(x, y *dsarray.Array) (float64, error) {
	pred, err := f.Predict(x)
	if err != nil {
		return 0, err
	}
	return dsarray.Accuracy(pred, y)
}
