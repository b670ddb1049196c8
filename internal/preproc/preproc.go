package preproc

import (
	"errors"
	"fmt"

	"taskml/internal/compss"
	"taskml/internal/costs"
	"taskml/internal/dsarray"
	"taskml/internal/mat"
)

// ErrNotFitted is returned when Transform is called before Fit.
var ErrNotFitted = errors.New("preproc: estimator is not fitted")

// StandardScaler removes the mean of every feature and divides by its
// standard deviation, "in order to reduce the variance to a unit" — the
// paper applies it before KNN so no feature dominates the distances.
//
// Fit builds a map-reduce over the blocks (one partial-moments task per
// block, a pairwise reduction, one finalize task); Transform is one task
// per block. Nothing synchronises: the fitted statistics stay a future, so
// a scaler+estimator pipeline forms a single task graph, as in Figure 6.
type StandardScaler struct {
	stats *compss.Future // 2×d matrix: row 0 = mean, row 1 = std
	cols  int
}

// Fit computes per-feature moments of x.
func (s *StandardScaler) Fit(x *dsarray.Array) {
	tc := x.Ctx()
	d := x.Cols()
	// Partial moments per block: a 3×d matrix [count*; sum; sumsq], where
	// count is replicated along the row for uniform merging.
	partials := make([]*compss.Future, 0, x.NumRowBlocks()*x.NumColBlocks())
	for i := 0; i < x.NumRowBlocks(); i++ {
		for j := 0; j < x.NumColBlocks(); j++ {
			partials = append(partials, tc.SubmitExec(compss.Opts{
				Name:     "scaler_partial",
				Exec:     "scaler_partial",
				Cost:     costs.Scaler(x.BlockRows(), x.BlockCols()),
				OutBytes: costs.Bytes(3, d),
			}, x.Block(i, j), j*x.BlockCols(), d))
		}
	}
	merged := dsarray.ReduceTree(tc, dsarray.ReduceOpts{
		Name: "scaler_merge", Exec: "mat_add",
		Cost: costs.Copy(3, d), OutBytes: costs.Bytes(3, d),
	}, partials, nil)

	s.stats = tc.SubmitExec(compss.Opts{
		Name:     "scaler_finalize",
		Exec:     "scaler_finalize",
		Cost:     costs.Copy(2, d),
		OutBytes: costs.Bytes(2, d),
	}, merged)
	s.cols = d
}

// Transform returns (x - mean) / std, one task per block.
func (s *StandardScaler) Transform(x *dsarray.Array) (*dsarray.Array, error) {
	if s.stats == nil {
		return nil, ErrNotFitted
	}
	if x.Cols() != s.cols {
		return nil, fmt.Errorf("preproc: scaler fitted on %d features, got %d", s.cols, x.Cols())
	}
	tc := x.Ctx()
	nrb, ncb := x.NumRowBlocks(), x.NumColBlocks()
	out := make([][]*compss.Future, nrb)
	for i := 0; i < nrb; i++ {
		out[i] = make([]*compss.Future, ncb)
		for j := 0; j < ncb; j++ {
			out[i][j] = tc.SubmitExec(compss.Opts{
				Name:     "scaler_transform",
				Exec:     "scaler_transform",
				Cost:     costs.Scaler(x.BlockRows(), x.BlockCols()),
				OutBytes: costs.Bytes(x.BlockRows(), x.BlockCols()),
			}, x.Block(i, j), s.stats, j*x.BlockCols())
		}
	}
	return dsarray.FromBlocks(tc, out, x.Rows(), x.Cols(), x.BlockRows(), x.BlockCols()), nil
}

// FitTransform fits the scaler and transforms x.
func (s *StandardScaler) FitTransform(x *dsarray.Array) (*dsarray.Array, error) {
	s.Fit(x)
	return s.Transform(x)
}

// PCA reduces dimensionality with the covariance method of §III-B.4:
// features are centered (not standardized), the covariance matrix is
// estimated as xᵀx/(n-1) "in two successive map-reduce phases, partitioning
// the samples only by row blocks", and a single task computes the
// eigendecomposition of the unpartitioned covariance matrix.
type PCA struct {
	// NComponents fixes the output dimensionality. Leave 0 to select by
	// VarianceToRetain.
	NComponents int
	// VarianceToRetain selects the smallest k whose eigenvalues explain at
	// least this fraction of total variance (the paper keeps 95%, reducing
	// 18810 features to 3269). Default 0.95 when NComponents is 0.
	VarianceToRetain float64

	mean       *compss.Future // 1×d
	components *mat.Dense     // d×k, materialised on the master at Fit
	explained  []float64      // eigenvalues, descending
	k          int
	cols       int
}

// Fit runs the PCA workflow on x. The eigendecomposition is synchronised to
// the master (it is a single task in dislib too); selecting k by retained
// variance requires the eigenvalues on the master regardless.
func (p *PCA) Fit(x *dsarray.Array) error {
	if x.Rows() < 2 {
		return fmt.Errorf("preproc: PCA needs at least 2 samples, got %d", x.Rows())
	}
	tc := x.Ctx()
	d := x.Cols()

	// Phase 1: column means.
	sums := x.ColSums()
	p.mean = tc.SubmitExec(compss.Opts{
		Name:     "pca_mean",
		Exec:     "pca_mean",
		Cost:     costs.Copy(1, d),
		OutBytes: costs.Bytes(1, d),
	}, sums, x.Rows())

	// Phase 2: covariance of the centered data.
	centered := x.SubRowVec(p.mean)
	gram := centered.Gram()
	cov := tc.SubmitExec(compss.Opts{
		Name:     "pca_cov",
		Exec:     "pca_cov",
		Cost:     costs.Copy(d, d),
		OutBytes: costs.Bytes(d, d),
	}, gram, x.Rows())

	// Single eigendecomposition task (numpy.linalg.eigh in dislib).
	eig := tc.SubmitExecN(compss.Opts{
		Name:     "pca_eigh",
		Exec:     "pca_eigh",
		Cost:     costs.Eigh(d),
		OutBytes: costs.Bytes(d, d),
	}, 2, cov)

	valsAny, err := tc.Get(eig[0])
	if err != nil {
		return err
	}
	vecsAny, err := tc.Get(eig[1])
	if err != nil {
		return err
	}
	vals := valsAny.(*mat.Dense).Row(0)
	p.explained = append([]float64(nil), vals...)
	p.components = vecsAny.(*mat.Dense)
	p.cols = d

	switch {
	case p.NComponents > 0:
		if p.NComponents > d {
			return fmt.Errorf("preproc: NComponents %d exceeds %d features", p.NComponents, d)
		}
		p.k = p.NComponents
	default:
		retain := p.VarianceToRetain
		if retain == 0 {
			retain = 0.95
		}
		if retain <= 0 || retain > 1 {
			return fmt.Errorf("preproc: VarianceToRetain %v outside (0, 1]", retain)
		}
		var total float64
		for _, v := range vals {
			if v > 0 {
				total += v
			}
		}
		p.k = d
		if total > 0 {
			acc := 0.0
			for i, v := range vals {
				if v > 0 {
					acc += v
				}
				if acc/total >= retain {
					p.k = i + 1
					break
				}
			}
		}
	}
	return nil
}

// K returns the selected number of components.
func (p *PCA) K() int { return p.k }

// ExplainedVariance returns the eigenvalues in descending order.
func (p *PCA) ExplainedVariance() []float64 { return p.explained }

// ExplainedVarianceRatio returns the fraction of variance the selected k
// components retain.
func (p *PCA) ExplainedVarianceRatio() float64 {
	var total, kept float64
	for i, v := range p.explained {
		if v > 0 {
			total += v
			if i < p.k {
				kept += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return kept / total
}

// Transform projects x onto the selected components: (x - mean) · W_k, one
// centering task and one GEMM task per row block.
func (p *PCA) Transform(x *dsarray.Array) (*dsarray.Array, error) {
	if p.components == nil {
		return nil, ErrNotFitted
	}
	if x.Cols() != p.cols {
		return nil, fmt.Errorf("preproc: PCA fitted on %d features, got %d", p.cols, x.Cols())
	}
	tc := x.Ctx()
	w := p.components.Slice(0, p.cols, 0, p.k)
	wf := tc.Submit(compss.Opts{
		Name:     "pca_components",
		Cost:     costs.Copy(p.cols, p.k),
		OutBytes: costs.Bytes(p.cols, p.k),
	}, func(_ *compss.TaskCtx, args []any) (any, error) {
		return args[0].(*mat.Dense), nil
	}, w)
	return x.SubRowVec(p.mean).MulDense(wf, p.k), nil
}

// FitTransform fits the PCA on x and projects it.
func (p *PCA) FitTransform(x *dsarray.Array) (*dsarray.Array, error) {
	if err := p.Fit(x); err != nil {
		return nil, err
	}
	return p.Transform(x)
}
