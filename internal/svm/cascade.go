package svm

import (
	"fmt"
	"math"

	"taskml/internal/compss"
	"taskml/internal/costs"
	"taskml/internal/dsarray"
	"taskml/internal/mat"
)

// svFraction is the fraction of a task's input rows assumed to become
// support vectors when estimating downstream task costs (costs must be
// declared at submission time, before the actual SV count exists).
const svFraction = 0.5

// CascadeParams configures the CascadeSVM estimator.
type CascadeParams struct {
	// SVC configures the solver run inside every cascade task.
	SVC SVCParams
	// Iterations is the number of cascade passes; dislib repeats the
	// cascade "for a fixed number of iterations or until a convergence
	// criterion is met". Default 3.
	Iterations int
	// Arity is the merge fan-in of the reduction. Default 2 (the paper's
	// Figure 3 merges "two by two").
	Arity int
	// CoresPerTask is the per-task core reservation recorded in the graph;
	// the paper's Figure 11a runs "6 tasks [per node], each using 8 cores".
	// Default 1.
	CoresPerTask int
	// CheckConvergence stops the cascade early when the dual objective's
	// relative change between iterations drops below ConvergenceTol —
	// dislib's check_convergence, which the paper's description covers
	// ("repeated for a fixed number of iterations or until a convergence
	// criterion is met"). Checking synchronises the objective to the
	// master after every iteration, exactly as dislib does.
	CheckConvergence bool
	// ConvergenceTol is the relative objective tolerance. Default 1e-3.
	ConvergenceTol float64
}

func (p CascadeParams) withDefaults() CascadeParams {
	if p.Iterations == 0 {
		p.Iterations = 3
	}
	if p.Arity == 0 {
		p.Arity = 2
	}
	if p.CoresPerTask == 0 {
		p.CoresPerTask = 1
	}
	if p.ConvergenceTol == 0 {
		p.ConvergenceTol = 1e-3
	}
	return p
}

// casNode is the value flowing through the cascade: a set of support
// vectors and the SVC trained at the node that produced them.
type casNode struct {
	x     *mat.Dense
	y     []int
	model *SVC
}

// Iterations returns how many cascade passes the last Fit actually ran
// (less than Params.Iterations when convergence checking stopped early).
func (c *CascadeSVM) IterationsRun() int { return c.itersRun }

// CascadeSVM is the distributed SVM of the paper's §III-C.1: the input
// ds-array's row blocks are trained independently, support vectors are
// merged pairwise and retrained until a single set remains, and the process
// repeats with the final support vectors fed back to every partition. "The
// maximum amount of parallelism of the fitting process is thus limited by
// the number of row blocks ... the scalability of the estimator is limited
// by the reduction phase of the cascade."
type CascadeSVM struct {
	Params CascadeParams

	model    *compss.Future // resolves to *casNode (final trained node)
	dims     int
	itersRun int
}

// Fit builds the cascade workflow over x (samples) and y (labels, a
// 1-column ds-array with the same row blocking). It does not synchronise;
// the trained model is a future consumed by Predict/Score tasks.
func (c *CascadeSVM) Fit(x, y *dsarray.Array) error {
	if x.Rows() != y.Rows() {
		return fmt.Errorf("svm: %d samples vs %d labels", x.Rows(), y.Rows())
	}
	if y.Cols() != 1 {
		return fmt.Errorf("svm: labels must have 1 column, got %d", y.Cols())
	}
	if x.NumRowBlocks() != y.NumRowBlocks() {
		return fmt.Errorf("svm: x has %d row blocks, y has %d", x.NumRowBlocks(), y.NumRowBlocks())
	}
	p := c.Params.withDefaults()
	tc := x.Ctx()
	d := x.Cols()
	c.dims = d

	type lf struct {
		fut *compss.Future
		est int // estimated row count for cost declaration
	}

	svcParams := p.SVC
	fitBlock := func(name string, est int, args ...any) lf {
		fut := tc.Submit(compss.Opts{
			Name:     name,
			Cost:     costs.SVCFit(est, d),
			Cores:    p.CoresPerTask,
			OutBytes: costs.Bytes(int(svFraction*float64(est))+1, d+1),
		}, func(_ *compss.TaskCtx, resolved []any) (any, error) {
			// Gather training rows from every input: (block, labels) pairs
			// and/or casNodes from previous layers.
			var xs []*mat.Dense
			var ys []int
			for i := 0; i < len(resolved); {
				switch v := resolved[i].(type) {
				case *mat.Dense: // block followed by its labels block
					lbl := resolved[i+1].(*mat.Dense)
					xs = append(xs, v)
					ys = append(ys, dsarray.LabelsToInts(lbl)...)
					i += 2
				case *casNode:
					xs = append(xs, v.x)
					ys = append(ys, v.y...)
					i++
				default:
					return nil, fmt.Errorf("svm: unexpected cascade input %T", v)
				}
			}
			xcat := mat.VStack(xs...)
			model := &SVC{Params: svcParams}
			if err := model.Fit(xcat, ys); err != nil {
				return nil, err
			}
			svx, svy := model.SupportSet()
			return &casNode{x: svx, y: svy, model: model}, nil
		}, args...)
		return lf{fut: fut, est: int(svFraction*float64(est)) + 1}
	}

	var prev *lf // final node of the previous iteration
	prevObj := math.Inf(1)
	c.itersRun = 0
	for iter := 0; iter < p.Iterations; iter++ {
		// Layer 0: one task per row block (merged with the previous
		// iteration's support vectors after the first pass).
		level := make([]lf, x.NumRowBlocks())
		for i := range level {
			rows := x.RowBlockRows(i)
			args := []any{x.RowBlock(i), y.RowBlock(i)}
			est := rows
			if prev != nil {
				args = append(args, prev.fut)
				est += prev.est
			}
			level[i] = fitBlock("svc_fit", est, args...)
		}
		// Reduction: merge Arity nodes at a time and retrain.
		for len(level) > 1 {
			var next []lf
			for i := 0; i < len(level); i += p.Arity {
				end := i + p.Arity
				if end > len(level) {
					end = len(level)
				}
				if end-i == 1 {
					next = append(next, level[i])
					continue
				}
				est := 0
				args := make([]any, 0, end-i)
				for _, node := range level[i:end] {
					est += node.est
					args = append(args, node.fut)
				}
				next = append(next, fitBlock("svc_merge", est, args...))
			}
			level = next
		}
		prev = &level[0]
		c.itersRun++

		if p.CheckConvergence && iter < p.Iterations-1 {
			// Compute the dual objective of the iteration's final model and
			// synchronise it — the per-iteration sync dislib pays for its
			// convergence check.
			objFut := tc.Submit(compss.Opts{
				Name:     "svc_objective",
				Cost:     costs.SVCPredict(prev.est, prev.est, d),
				OutBytes: 8,
			}, func(_ *compss.TaskCtx, args []any) (any, error) {
				node := args[0].(*casNode)
				return nodeObjective(node)
			}, prev.fut)
			v, err := tc.Get(objFut)
			if err != nil {
				return err
			}
			obj := v.(float64)
			if math.Abs(obj-prevObj) <= p.ConvergenceTol*math.Abs(prevObj) {
				break
			}
			prevObj = obj
		}
	}
	c.model = prev.fut
	return nil
}

// nodeObjective evaluates the dual objective of a cascade node's model.
func nodeObjective(node *casNode) (float64, error) {
	return node.model.Objective()
}

// Model synchronises and returns the final trained SVC.
func (c *CascadeSVM) Model(tc *compss.TaskCtx) (*SVC, error) {
	if c.model == nil {
		return nil, ErrNotFitted
	}
	v, err := tc.Get(c.model)
	if err != nil {
		return nil, err
	}
	return v.(*casNode).model, nil
}

// Predict classifies x with one task per row block, returning a 1-column
// ds-array of labels with x's row blocking.
func (c *CascadeSVM) Predict(x *dsarray.Array) (*dsarray.Array, error) {
	if c.model == nil {
		return nil, ErrNotFitted
	}
	if x.Cols() != c.dims {
		return nil, fmt.Errorf("svm: %d features, model fitted on %d", x.Cols(), c.dims)
	}
	tc := x.Ctx()
	nrb := x.NumRowBlocks()
	blocks := make([][]*compss.Future, nrb)
	for i := 0; i < nrb; i++ {
		rows := x.RowBlockRows(i)
		estSV := int(svFraction*float64(x.BlockRows())) + 1
		blocks[i] = []*compss.Future{tc.Submit(compss.Opts{
			Name:     "svc_predict",
			Cost:     costs.SVCPredict(estSV, rows, c.dims),
			OutBytes: costs.Bytes(rows, 1),
		}, func(_ *compss.TaskCtx, args []any) (any, error) {
			blk := args[0].(*mat.Dense)
			node := args[1].(*casNode)
			labels, err := node.model.Predict(blk)
			if err != nil {
				return nil, err
			}
			out := mat.New(blk.Rows, 1)
			for r, l := range labels {
				out.Set(r, 0, float64(l))
			}
			return out, nil
		}, x.RowBlock(i), c.model)}
	}
	return dsarray.FromBlocks(tc, blocks, x.Rows(), 1, x.BlockRows(), 1), nil
}

// Score returns the mean accuracy on (x, y): per-block comparison tasks, a
// pairwise reduction, and one synchronisation — the paper's "calculates the
// score returning the mean accuracy on a given test data and labels".
func (c *CascadeSVM) Score(x, y *dsarray.Array) (float64, error) {
	pred, err := c.Predict(x)
	if err != nil {
		return 0, err
	}
	return dsarray.Accuracy(pred, y)
}
