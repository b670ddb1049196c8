package preproc

import (
	"fmt"
	"math"

	"taskml/internal/exec"
	"taskml/internal/mat"
)

// Registered task bodies of the preprocessing estimators (StandardScaler
// and PCA), in argument-pure form: block offsets and sample counts that the
// original closures captured arrive as explicit arguments (see
// internal/exec for the contract).
func init() {
	// scaler_partial(blk, off, d): per-block moment partials, a 3×d matrix
	// [count; sum; sumsq] with the block's columns scattered at offset off.
	exec.Register("scaler_partial", func(args []any) (any, error) {
		blk := args[0].(*mat.Dense)
		off := args[1].(int)
		d := args[2].(int)
		out := mat.New(3, d)
		for r := 0; r < blk.Rows; r++ {
			row := blk.Row(r)
			// v*v is rounded before the sum, so no architecture fuses it
			// (mat's lane contract); so is mean*mean in scaler_finalize.
			for c, v := range row {
				out.Set(0, off+c, out.At(0, off+c)+1)
				out.Set(1, off+c, out.At(1, off+c)+v)
				out.Set(2, off+c, out.At(2, off+c)+float64(v*v))
			}
		}
		return out, nil
	})

	// scaler_finalize(m): merged 3×d moments → 2×d [mean; std].
	exec.Register("scaler_finalize", func(args []any) (any, error) {
		m := args[0].(*mat.Dense)
		d := m.Cols
		out := mat.New(2, d)
		for c := 0; c < d; c++ {
			n := m.At(0, c)
			if n == 0 {
				return nil, fmt.Errorf("preproc: scaler fitted on empty column %d", c)
			}
			mean := m.At(1, c) / n
			variance := m.At(2, c)/n - float64(mean*mean)
			if variance < 0 {
				variance = 0
			}
			std := math.Sqrt(variance)
			if std == 0 {
				std = 1 // constant feature: scikit-learn convention
			}
			out.Set(0, c, mean)
			out.Set(1, c, std)
		}
		return out, nil
	})

	// scaler_transform(blk, st, off): (blk - mean) / std against the
	// [off, off+cols) window of the 2×d statistics, as a fresh block.
	exec.Register("scaler_transform", func(args []any) (any, error) {
		blk := args[0].(*mat.Dense).Clone()
		st := args[1].(*mat.Dense)
		off := args[2].(int)
		for r := 0; r < blk.Rows; r++ {
			row := blk.Row(r)
			for c := range row {
				row[c] = (row[c] - st.At(0, off+c)) / st.At(1, off+c)
			}
		}
		return blk, nil
	})

	// pca_mean(sums, n): column sums → column means.
	exec.Register("pca_mean", func(args []any) (any, error) {
		return mat.Scale(1/float64(args[1].(int)), args[0].(*mat.Dense)), nil
	})

	// pca_cov(gram, n): centered Gram matrix → covariance (divide by n-1).
	exec.Register("pca_cov", func(args []any) (any, error) {
		return mat.Scale(1/float64(args[1].(int)-1), args[0].(*mat.Dense)), nil
	})

	// pca_eigh(cov) -> (eigenvalues as 1×d, eigenvectors): the single
	// unpartitioned eigendecomposition task (numpy.linalg.eigh in dislib).
	exec.RegisterN("pca_eigh", func(args []any) ([]any, error) {
		vals, vecs, err := mat.EigSym(args[0].(*mat.Dense))
		if err != nil {
			return nil, err
		}
		return []any{mat.NewFromData(1, len(vals), vals), vecs}, nil
	})
}
