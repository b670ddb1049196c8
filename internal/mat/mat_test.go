package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("New not zeroed: %v", m.Data)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(-1, 2)
}

func TestNewFromDataLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	NewFromData(2, 2, []float64{1, 2, 3})
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = -1
	if m.At(1, 0) != -1 {
		t.Fatal("Row must alias storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestSlice(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Slice(1, 3, 0, 2)
	want := NewFromRows([][]float64{{4, 5}, {7, 8}})
	if !Equal(s, want, 0) {
		t.Fatalf("Slice = %v, want %v", s, want)
	}
}

func TestSliceOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Slice(0, 3, 0, 1)
}

func TestTranspose(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	want := NewFromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !Equal(tr, want, 0) {
		t.Fatalf("T = %v, want %v", tr, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randDense(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		return Equal(m.T().T(), m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	if got := Add(a, b); !Equal(got, NewFromRows([][]float64{{6, 8}, {10, 12}}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !Equal(got, NewFromRows([][]float64{{4, 4}, {4, 4}}), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(2, a); !Equal(got, NewFromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("Scale = %v", got)
	}
	c := a.Clone()
	AddInPlace(c, b)
	if !Equal(c, Add(a, b), 0) {
		t.Fatal("AddInPlace disagrees with Add")
	}
	d := a.Clone()
	ScaleInPlace(d, 3)
	if !Equal(d, Scale(3, a), 0) {
		t.Fatal("ScaleInPlace disagrees with Scale")
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2, 2), New(2, 3))
}

func TestMulKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if got := Mul(a, b); !Equal(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDense(rng, 5, 5)
	if !Equal(Mul(m, Identity(5)), m, 1e-12) || !Equal(Mul(Identity(5), m), m, 1e-12) {
		t.Fatal("identity is not neutral for Mul")
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

// Property: MulAtB(a, b) == Mul(a.T(), b) and MulABt(a, b) == Mul(a, b.T()).
func TestFusedTransposeProductsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randDense(rng, n, k)
		b := randDense(rng, n, m)
		c := randDense(rng, m, k)
		return Equal(MulAtB(a, b), Mul(a.T(), b), 1e-10) &&
			Equal(MulABt(a, c), Mul(a, c.T()), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVec(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := MulVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
}

func TestColMeansAndSums(t *testing.T) {
	m := NewFromRows([][]float64{{1, 10}, {3, 20}})
	means := ColMeans(m)
	if means[0] != 2 || means[1] != 15 {
		t.Fatalf("ColMeans = %v", means)
	}
	sums := ColSums(m)
	if sums[0] != 4 || sums[1] != 30 {
		t.Fatalf("ColSums = %v", sums)
	}
	empty := ColMeans(New(0, 3))
	for _, v := range empty {
		if v != 0 {
			t.Fatal("ColMeans of empty matrix must be zeros")
		}
	}
}

func TestSubRowVecCentersColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randDense(rng, 20, 4)
	SubRowVec(m, ColMeans(m))
	for j, v := range ColMeans(m) {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("column %d mean after centering = %v", j, v)
		}
	}
}

func TestVStackHStack(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}})
	b := NewFromRows([][]float64{{3, 4}, {5, 6}})
	v := VStack(a, nil, b)
	if !Equal(v, NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}), 0) {
		t.Fatalf("VStack = %v", v)
	}
	h := HStack(b, b)
	if !Equal(h, NewFromRows([][]float64{{3, 4, 3, 4}, {5, 6, 5, 6}}), 0) {
		t.Fatalf("HStack = %v", h)
	}
	if e := VStack(); e.Rows != 0 || e.Cols != 0 {
		t.Fatal("empty VStack should be 0x0")
	}
}

func TestTakeRows(t *testing.T) {
	m := NewFromRows([][]float64{{0, 0}, {1, 1}, {2, 2}})
	got := TakeRows(m, []int{2, 0})
	if !Equal(got, NewFromRows([][]float64{{2, 2}, {0, 0}}), 0) {
		t.Fatalf("TakeRows = %v", got)
	}
}

func TestNorm2(t *testing.T) {
	m := NewFromRows([][]float64{{3, 4}})
	if Norm2(m) != 5 {
		t.Fatalf("Norm2 = %v, want 5", Norm2(m))
	}
}

func TestEigSymDiagonal(t *testing.T) {
	vals, vecs, err := EigSym(Diag([]float64{1, 5, 3}))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, 1}
	for i, v := range want {
		if math.Abs(vals[i]-v) > 1e-10 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// The top eigenvector must be ±e_1 (the index of value 5).
	if math.Abs(math.Abs(vecs.At(1, 0))-1) > 1e-10 {
		t.Fatalf("top eigenvector = col0 of %v", vecs)
	}
}

func TestEigSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := NewFromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("vals = %v, want [3 1]", vals)
	}
	// Eigenvector for 3 is (1,1)/sqrt2.
	r := vecs.At(0, 0) / vecs.At(1, 0)
	if math.Abs(r-1) > 1e-8 {
		t.Fatalf("top eigenvector ratio = %v, want 1", r)
	}
}

// Property: for a random symmetric matrix, A·v_i = λ_i·v_i, eigenvectors are
// orthonormal, and eigenvalues come back sorted descending.
func TestEigSymReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := randDense(rng, n, n)
		a := MulAtB(g, g) // symmetric PSD
		vals, vecs, err := EigSym(a)
		if err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-9 {
				return false
			}
		}
		// A·V == V·diag(vals)
		av := Mul(a, vecs)
		vd := Mul(vecs, Diag(vals))
		if !Equal(av, vd, 1e-7*(1+Norm2(a))) {
			return false
		}
		// VᵀV == I
		return Equal(MulAtB(vecs, vecs), Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigSymTraceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 12
	g := randDense(rng, n, n)
	a := MulAtB(g, g)
	var trace float64
	for i := 0; i < n; i++ {
		trace += a.At(i, i)
	}
	vals, _, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if math.Abs(sum-trace) > 1e-8*math.Abs(trace) {
		t.Fatalf("sum of eigenvalues %v != trace %v", sum, trace)
	}
}

// checkEigSym holds a decomposition of the symmetric matrix a to the solver's
// contract: residual, orthonormality, descending order and the canonical
// sign of every column.
func checkEigSym(t *testing.T, a *Dense, vals []float64, vecs *Dense) {
	t.Helper()
	n := a.Rows
	if len(vals) != n || vecs.Rows != n || vecs.Cols != n {
		t.Fatalf("shapes: %d values, %dx%d vectors, want %d", len(vals), vecs.Rows, vecs.Cols, n)
	}
	for i := 1; i < n; i++ {
		if vals[i] > vals[i-1] {
			t.Fatalf("eigenvalues not descending at %d: %v > %v", i, vals[i], vals[i-1])
		}
	}
	if res := Norm2(Sub(Mul(a, vecs), Mul(vecs, Diag(vals)))); res > 1e-9*(1+Norm2(a)) {
		t.Fatalf("residual |AV - VL| = %g, |A| = %g", res, Norm2(a))
	}
	if res := Norm2(Sub(MulAtB(vecs, vecs), Identity(n))); res > 1e-10 {
		t.Fatalf("|VtV - I| = %g", res)
	}
	for c := 0; c < n; c++ {
		big := 0
		for r := 1; r < n; r++ {
			if math.Abs(vecs.At(r, c)) > math.Abs(vecs.At(big, c)) {
				big = r
			}
		}
		if vecs.At(big, c) <= 0 {
			t.Fatalf("column %d: largest component %v at row %d is not positive", c, vecs.At(big, c), big)
		}
	}
}

// The PCA covariance of the CV workloads: a 1000x280 Gram matrix.
func TestEigSym280Gram(t *testing.T) {
	g := randDense(rand.New(rand.NewSource(21)), 1000, 280)
	a := MulAtB(g, g)
	vals, vecs, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	checkEigSym(t, a, vals, vecs)
}

func TestEigSymEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	low := randDense(rng, 5, 40)
	cases := map[string]*Dense{
		"empty":             New(0, 0),
		"1x1":               Diag([]float64{-3}),
		"zero":              New(6, 6),
		"repeated diagonal": Diag([]float64{2, 7, 2, 7, 7, -1, 2}),
		"rank 5 of 40":      MulAtB(low, low),
	}
	for name, a := range cases {
		vals, vecs, err := EigSym(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEigSym(t, a, vals, vecs)
		if name == "rank 5 of 40" {
			for i, v := range vals {
				if (i < 5) != (math.Abs(v) > 1e-9*vals[0]) {
					t.Fatalf("rank 5 of 40: eigenvalue %d = %g (largest %g)", i, v, vals[0])
				}
			}
		}
	}
}

// Only the upper triangle is read: garbage below the diagonal changes no bit.
func TestEigSymIgnoresLowerTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randDense(rng, 30, 17)
	a := MulAtB(g, g)
	dirty := a.Clone()
	for i := 0; i < dirty.Rows; i++ {
		for j := 0; j < i; j++ {
			dirty.Set(i, j, math.NaN())
		}
	}
	vals, vecs, err := EigSym(a)
	dvals, dvecs, derr := EigSym(dirty)
	if err != nil || derr != nil {
		t.Fatal(err, derr)
	}
	checkEigSym(t, a, vals, vecs)
	for i := range vals {
		if math.Float64bits(vals[i]) != math.Float64bits(dvals[i]) {
			t.Fatalf("eigenvalue %d: %v vs %v with a dirty lower triangle", i, vals[i], dvals[i])
		}
	}
	if !Equal(vecs, dvecs, 0) {
		t.Fatal("eigenvectors depend on the lower triangle")
	}
}

func TestIdentityDiag(t *testing.T) {
	if !Equal(Identity(3), Diag([]float64{1, 1, 1}), 0) {
		t.Fatal("Identity(3) != Diag(ones)")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := NewFromRows([][]float64{{1, 2}})
	if small.String() == "" {
		t.Fatal("empty String for small matrix")
	}
	big := New(100, 100)
	if big.String() != "Dense(100x100)" {
		t.Fatalf("large String = %q", big.String())
	}
}

func BenchmarkMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randDense(rng, 128, 128)
	y := randDense(rng, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkEigSym64(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := randDense(rng, 64, 64)
	a := MulAtB(g, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigSym(a); err != nil {
			b.Fatal(err)
		}
	}
}
