package preproc

import (
	"math"
	"math/rand"
	"testing"

	"taskml/internal/compss"
	"taskml/internal/dsarray"
	"taskml/internal/mat"
)

func newRT() *compss.Runtime { return compss.New(compss.Config{Workers: 4}) }

func randMatrix(rng *rand.Rand, r, c int, scale, offset float64) *mat.Dense {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()*scale + offset
	}
	return m
}

func TestScalerProducesZeroMeanUnitStd(t *testing.T) {
	rt := newRT()
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, 50, 7, 3.5, 10)
	// Column constCol is constant: its std is taken as 1 (the scikit-learn
	// convention), so it scales to exact zeros, not 0/0 = NaN.
	const constCol = 4
	for i := 0; i < m.Rows; i++ {
		m.Set(i, constCol, 10)
	}
	a := dsarray.FromMatrix(rt.Main(), m, 13, 3)
	var s StandardScaler
	scaled, err := s.FitTransform(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scaled.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for j, mean := range mat.ColMeans(got) {
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("column %d mean = %v", j, mean)
		}
	}
	for i := 0; i < got.Rows; i++ {
		if v := got.At(i, constCol); v != 0 {
			t.Fatalf("constant column, row %d = %v, want 0", i, v)
		}
	}
	for j := 0; j < got.Cols; j++ {
		if j == constCol {
			continue
		}
		var ss float64
		for i := 0; i < got.Rows; i++ {
			ss += got.At(i, j) * got.At(i, j)
		}
		std := math.Sqrt(ss / float64(got.Rows))
		if math.Abs(std-1) > 1e-9 {
			t.Fatalf("column %d std = %v", j, std)
		}
	}
}

func TestScalerTransformBeforeFit(t *testing.T) {
	rt := newRT()
	a := dsarray.FromMatrix(rt.Main(), mat.New(4, 2), 2, 2)
	var s StandardScaler
	if _, err := s.Transform(a); err != ErrNotFitted {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
}

func TestScalerDimensionMismatch(t *testing.T) {
	rt := newRT()
	a := dsarray.FromMatrix(rt.Main(), randMatrix(rand.New(rand.NewSource(2)), 6, 3, 1, 0), 3, 3)
	b := dsarray.FromMatrix(rt.Main(), mat.New(6, 4), 3, 4)
	var s StandardScaler
	s.Fit(a)
	if _, err := s.Transform(b); err == nil {
		t.Fatal("want dimension error")
	}
}

func TestScalerGraphShape(t *testing.T) {
	rt := newRT()
	m := randMatrix(rand.New(rand.NewSource(3)), 20, 8, 1, 0)
	a := dsarray.FromMatrix(rt.Main(), m, 5, 4) // 4×2 grid
	var s StandardScaler
	if _, err := s.FitTransform(a); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	counts := rt.Graph().CountByName()
	if counts["scaler_partial"] != 8 || counts["scaler_transform"] != 8 {
		t.Fatalf("graph shape: %v", counts)
	}
	if counts["scaler_merge"] != 7 { // 8 partials → 7 pairwise merges
		t.Fatalf("merge count: %v", counts)
	}
}

// serialPCA computes the reference projection with direct linear algebra.
func serialPCA(m *mat.Dense, k int) *mat.Dense {
	c := m.Clone()
	mat.SubRowVec(c, mat.ColMeans(c))
	cov := mat.Scale(1/float64(m.Rows-1), mat.MulAtB(c, c))
	_, vecs, err := mat.EigSym(cov)
	if err != nil {
		panic(err)
	}
	return mat.Mul(c, vecs.Slice(0, m.Cols, 0, k))
}

func TestPCAFixedComponentsMatchesSerial(t *testing.T) {
	rt := newRT()
	rng := rand.New(rand.NewSource(4))
	m := randMatrix(rng, 40, 6, 2, 5)
	a := dsarray.FromMatrix(rt.Main(), m, 9, 3)
	p := PCA{NComponents: 3}
	proj, err := p.FitTransform(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := proj.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := serialPCA(m, 3)
	if got.Rows != 40 || got.Cols != 3 {
		t.Fatalf("projection shape %dx%d", got.Rows, got.Cols)
	}
	// Eigenvector signs are arbitrary: compare per-column absolute values.
	for j := 0; j < 3; j++ {
		same, flipped := true, true
		for i := 0; i < got.Rows; i++ {
			if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-7 {
				same = false
			}
			if math.Abs(got.At(i, j)+want.At(i, j)) > 1e-7 {
				flipped = false
			}
		}
		if !same && !flipped {
			t.Fatalf("component %d does not match serial PCA (up to sign)", j)
		}
	}
}

func TestPCAVarianceRetention(t *testing.T) {
	// Data with strong low-rank structure: 2 dominant directions + noise.
	rt := newRT()
	rng := rand.New(rand.NewSource(5))
	n, d := 120, 10
	m := mat.New(n, d)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64()*10, rng.NormFloat64()*5
		for j := 0; j < d; j++ {
			m.Set(i, j, a*math.Sin(float64(j))+b*math.Cos(2*float64(j))+0.1*rng.NormFloat64())
		}
	}
	a := dsarray.FromMatrix(rt.Main(), m, 30, 5)
	p := PCA{VarianceToRetain: 0.95}
	if err := p.Fit(a); err != nil {
		t.Fatal(err)
	}
	if p.K() < 1 || p.K() > 3 {
		t.Fatalf("K = %d, want small for rank-2 data", p.K())
	}
	if r := p.ExplainedVarianceRatio(); r < 0.95 {
		t.Fatalf("retained ratio %v < 0.95", r)
	}
	if len(p.ExplainedVariance()) != d {
		t.Fatalf("eigenvalue count %d", len(p.ExplainedVariance()))
	}
	// Eigenvalues descending.
	ev := p.ExplainedVariance()
	for i := 1; i < len(ev); i++ {
		if ev[i] > ev[i-1]+1e-9 {
			t.Fatalf("eigenvalues not sorted: %v", ev)
		}
	}
}

func TestPCADefaultsTo95(t *testing.T) {
	rt := newRT()
	m := randMatrix(rand.New(rand.NewSource(6)), 30, 5, 1, 0)
	a := dsarray.FromMatrix(rt.Main(), m, 10, 5)
	var p PCA
	if err := p.Fit(a); err != nil {
		t.Fatal(err)
	}
	if p.ExplainedVarianceRatio() < 0.95 {
		t.Fatalf("default retention %v < 0.95", p.ExplainedVarianceRatio())
	}
}

func TestPCAProjectionDecorrelates(t *testing.T) {
	rt := newRT()
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(rng, 60, 5, 2, -3)
	a := dsarray.FromMatrix(rt.Main(), m, 20, 5)
	p := PCA{NComponents: 5}
	proj, err := p.FitTransform(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := proj.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Projected covariance must be (near) diagonal with the eigenvalues.
	mat.SubRowVec(got, mat.ColMeans(got))
	cov := mat.Scale(1/float64(got.Rows-1), mat.MulAtB(got, got))
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				if math.Abs(cov.At(i, i)-p.ExplainedVariance()[i]) > 1e-6*(1+p.ExplainedVariance()[i]) {
					t.Fatalf("projected variance %v != eigenvalue %v", cov.At(i, i), p.ExplainedVariance()[i])
				}
			} else if math.Abs(cov.At(i, j)) > 1e-7 {
				t.Fatalf("projected covariance (%d,%d) = %v, want 0", i, j, cov.At(i, j))
			}
		}
	}
}

func TestPCAErrors(t *testing.T) {
	rt := newRT()
	one := dsarray.FromMatrix(rt.Main(), mat.New(1, 3), 1, 3)
	var p PCA
	if err := p.Fit(one); err == nil {
		t.Fatal("want error for single sample")
	}
	if _, err := (&PCA{}).Transform(one); err != ErrNotFitted {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
	big := PCA{NComponents: 99}
	a := dsarray.FromMatrix(rt.Main(), mat.New(5, 3), 2, 3)
	if err := big.Fit(a); err == nil {
		t.Fatal("want error for NComponents > features")
	}
	badRetain := PCA{VarianceToRetain: 1.5}
	if err := badRetain.Fit(a); err == nil {
		t.Fatal("want error for retention > 1")
	}
}

func TestPCATransformDimensionMismatch(t *testing.T) {
	rt := newRT()
	a := dsarray.FromMatrix(rt.Main(), randMatrix(rand.New(rand.NewSource(8)), 10, 4, 1, 0), 5, 4)
	b := dsarray.FromMatrix(rt.Main(), mat.New(10, 6), 5, 6)
	p := PCA{NComponents: 2}
	if err := p.Fit(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transform(b); err == nil {
		t.Fatal("want dimension error")
	}
}

func TestPCAGraphHasSingleEighTask(t *testing.T) {
	rt := newRT()
	m := randMatrix(rand.New(rand.NewSource(9)), 24, 6, 1, 0)
	a := dsarray.FromMatrix(rt.Main(), m, 6, 3)
	p := PCA{NComponents: 2}
	if _, err := p.FitTransform(a); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	counts := rt.Graph().CountByName()
	if counts["pca_eigh"] != 1 {
		t.Fatalf("eigendecomposition must be a single task (got %d)", counts["pca_eigh"])
	}
	if counts["partial_gram"] != 4 { // one per row block
		t.Fatalf("partial_gram = %d, want 4", counts["partial_gram"])
	}
}

func BenchmarkPCAFit64Features(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := randMatrix(rng, 256, 64, 1, 0)
	for i := 0; i < b.N; i++ {
		rt := newRT()
		a := dsarray.FromMatrix(rt.Main(), m, 64, 64)
		p := PCA{VarianceToRetain: 0.95}
		if err := p.Fit(a); err != nil {
			b.Fatal(err)
		}
	}
}
