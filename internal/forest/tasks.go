package forest

import (
	"math/rand"

	"taskml/internal/dsarray"
	"taskml/internal/exec"
	"taskml/internal/mat"
	"taskml/internal/randsrc"
)

// Registered task bodies of the random-forest workflow. The estimator
// seeds, depths and tree parameters the original closures captured travel
// as explicit arguments, so every body is a pure function of its args and
// runs identically in-process and on a worker process. The wire types
// (TrainSet, SplitOut, Node, TreeParams) are registered alongside with
// their binary codecs (codec.go). Every body only reads its arguments.
func init() {
	exec.RegisterCodec(encodeTrainSet, decodeTrainSet, (*TrainSet).ExecValueBytes)
	exec.RegisterCodec(encodeSplitOut, decodeSplitOut, (*SplitOut).ExecValueBytes)
	exec.RegisterCodec(encodeNode, decodeNode, (*Node).ExecValueBytes)
	exec.RegisterCodec(encodeTreeParams, decodeTreeParams, nil)

	// rf_gather(blocks): alternating x row block / y row block futures,
	// concatenated into the single TrainSet the tree tasks consume.
	exec.Register("rf_gather", func(args []any) (any, error) {
		vals := args[0].([]any)
		var xs []*mat.Dense
		var labels []int
		for i := 0; i < len(vals); i += 2 {
			xs = append(xs, vals[i].(*mat.Dense))
			labels = append(labels, dsarray.LabelsToInts(vals[i+1].(*mat.Dense))...)
		}
		return NewTrainSet(mat.VStack(xs...), labels)
	})

	// rf_bootstrap(data, seed): one estimator's bootstrap sample of row
	// indices, drawn from the given seed.
	exec.Register("rf_bootstrap", func(args []any) (any, error) {
		ts := args[0].(*TrainSet)
		seed := args[1].(int64)
		rng := rand.New(randsrc.New(seed))
		idx := make([]int, len(ts.Y))
		for i := range idx {
			idx[i] = rng.Intn(len(ts.Y))
		}
		return idx, nil
	})

	// rf_subtree(data, rows, seed, tp, nClasses): grow one whole subtree
	// below the distr-depth frontier. tp arrives with MaxDepth already
	// rebased to the remaining depth.
	exec.Register("rf_subtree", func(args []any) (any, error) {
		ts := args[0].(*TrainSet)
		rows := args[1].([]int)
		seed := args[2].(int64)
		tp := args[3].(TreeParams)
		nClasses := args[4].(int)
		rng := rand.New(randsrc.New(seed))
		return BuildTree(ts, rows, nClasses, tp, rng), nil
	})

	// rf_split(data, rows, seed, tp, nClasses) -> (SplitOut, left, right):
	// one best-split decision of the distributed depth range.
	exec.RegisterN("rf_split", func(args []any) ([]any, error) {
		ts := args[0].(*TrainSet)
		rows := args[1].([]int)
		seed := args[2].(int64)
		tp := args[3].(TreeParams)
		nClasses := args[4].(int)
		rng := rand.New(randsrc.New(seed))
		if len(rows) < tp.withDefaults().MinSamplesSplit {
			return []any{&SplitOut{Leaf: leafNode(ts.Y, rows, nil, nClasses)}, []int{}, []int{}}, nil
		}
		sp := BestSplit(ts, rows, nClasses, tp, rng)
		if !sp.Found || len(sp.Left) == 0 || len(sp.Right) == 0 {
			return []any{&SplitOut{Leaf: leafNode(ts.Y, rows, nil, nClasses)}, []int{}, []int{}}, nil
		}
		return []any{&SplitOut{Split: sp}, sp.Left, sp.Right}, nil
	})

	// rf_join(split, left, right): assemble a distr-depth node from its
	// split decision and child subtrees.
	exec.Register("rf_join", func(args []any) (any, error) {
		so := args[0].(*SplitOut)
		if so.Leaf != nil {
			return so.Leaf, nil
		}
		return &Node{
			Feature:   so.Split.Feature,
			Threshold: so.Split.Threshold,
			Left:      args[1].(*Node),
			Right:     args[2].(*Node),
		}, nil
	})

	// rf_predict(blk, trees, nClasses): classify one query row block by
	// averaging the per-tree leaf distributions.
	exec.Register("rf_predict", func(args []any) (any, error) {
		blk := args[0].(*mat.Dense)
		treeVals := args[1].([]any)
		nClasses := args[2].(int)
		trees := make([]*Node, 0, len(treeVals))
		for _, v := range treeVals {
			trees = append(trees, v.(*Node))
		}
		out := mat.New(blk.Rows, 1)
		probs := make([]float64, nClasses)
		for r := 0; r < blk.Rows; r++ {
			for c := range probs {
				probs[c] = 0
			}
			for _, t := range trees {
				for c, pr := range t.PredictProbs(blk.Row(r)) {
					probs[c] += pr
				}
			}
			best := 0
			for c, pr := range probs {
				if pr > probs[best] {
					best = c
				}
			}
			out.Set(r, 0, float64(best))
		}
		return out, nil
	})
}
