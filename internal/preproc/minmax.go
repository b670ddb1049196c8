package preproc

import (
	"fmt"
	"math"

	"taskml/internal/compss"
	"taskml/internal/costs"
	"taskml/internal/dsarray"
	"taskml/internal/mat"
)

// MinMaxScaler rescales every feature to [0, 1] (dislib ships it alongside
// the StandardScaler; wearable pipelines often prefer it because spectral
// power features are non-negative and heavy-tailed).
//
// Like the StandardScaler it is a two-phase task workflow: per-block
// min/max tasks, a pairwise reduction, and one transform task per block;
// nothing synchronises.
type MinMaxScaler struct {
	ranges *compss.Future // 2×d matrix: row 0 = min, row 1 = max
	cols   int
}

// Fit computes per-feature minima and maxima of x.
func (s *MinMaxScaler) Fit(x *dsarray.Array) {
	tc := x.Ctx()
	d := x.Cols()
	partials := make([]*compss.Future, 0, x.NumRowBlocks()*x.NumColBlocks())
	for i := 0; i < x.NumRowBlocks(); i++ {
		for j := 0; j < x.NumColBlocks(); j++ {
			jj := j
			partials = append(partials, tc.Submit(compss.Opts{
				Name:     "minmax_partial",
				Cost:     costs.Copy(x.BlockRows(), x.BlockCols()),
				OutBytes: costs.Bytes(2, d),
			}, func(_ *compss.TaskCtx, args []any) (any, error) {
				blk := args[0].(*mat.Dense)
				out := mat.New(2, d)
				for c := 0; c < d; c++ {
					out.Set(0, c, math.Inf(1))
					out.Set(1, c, math.Inf(-1))
				}
				off := jj * x.BlockCols()
				for r := 0; r < blk.Rows; r++ {
					row := blk.Row(r)
					for c, v := range row {
						if v < out.At(0, off+c) {
							out.Set(0, off+c, v)
						}
						if v > out.At(1, off+c) {
							out.Set(1, off+c, v)
						}
					}
				}
				return out, nil
			}, x.Block(i, j)))
		}
	}
	s.ranges = dsarray.ReduceTree(tc, dsarray.ReduceOpts{
		Name: "minmax_merge", Cost: costs.Copy(2, d), OutBytes: costs.Bytes(2, d),
	}, partials,
		func(a, b *mat.Dense) *mat.Dense {
			out := a.Clone()
			for c := 0; c < out.Cols; c++ {
				if b.At(0, c) < out.At(0, c) {
					out.Set(0, c, b.At(0, c))
				}
				if b.At(1, c) > out.At(1, c) {
					out.Set(1, c, b.At(1, c))
				}
			}
			return out
		})
	s.cols = d
}

// Transform maps x to [0, 1] per feature; constant features map to 0.
func (s *MinMaxScaler) Transform(x *dsarray.Array) (*dsarray.Array, error) {
	if s.ranges == nil {
		return nil, ErrNotFitted
	}
	if x.Cols() != s.cols {
		return nil, fmt.Errorf("preproc: min-max scaler fitted on %d features, got %d", s.cols, x.Cols())
	}
	tc := x.Ctx()
	nrb, ncb := x.NumRowBlocks(), x.NumColBlocks()
	out := make([][]*compss.Future, nrb)
	for i := 0; i < nrb; i++ {
		out[i] = make([]*compss.Future, ncb)
		for j := 0; j < ncb; j++ {
			jj := j
			out[i][j] = tc.Submit(compss.Opts{
				Name:     "minmax_transform",
				Cost:     costs.Copy(x.BlockRows(), x.BlockCols()),
				OutBytes: costs.Bytes(x.BlockRows(), x.BlockCols()),
			}, func(_ *compss.TaskCtx, args []any) (any, error) {
				blk := args[0].(*mat.Dense).Clone()
				rg := args[1].(*mat.Dense)
				off := jj * x.BlockCols()
				for r := 0; r < blk.Rows; r++ {
					row := blk.Row(r)
					for c := range row {
						lo, hi := rg.At(0, off+c), rg.At(1, off+c)
						if hi > lo {
							row[c] = (row[c] - lo) / (hi - lo)
						} else {
							row[c] = 0
						}
					}
				}
				return blk, nil
			}, x.Block(i, j), s.ranges)
		}
	}
	return dsarray.FromBlocks(tc, out, x.Rows(), x.Cols(), x.BlockRows(), x.BlockCols()), nil
}

// FitTransform fits and transforms x.
func (s *MinMaxScaler) FitTransform(x *dsarray.Array) (*dsarray.Array, error) {
	s.Fit(x)
	return s.Transform(x)
}
