package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"taskml/internal/par"
)

// naiveMul is the reference ijk product the blocked kernels are tested
// against.
func naiveMul(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestDotAxpyKnown(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("empty Dot = %v", got)
	}
	y := []float64{1, 1, 1, 1, 1}
	Axpy(2, a, y)
	for i := range y {
		if y[i] != 1+2*a[i] {
			t.Fatalf("Axpy = %v", y)
		}
	}
	Axpy(3, nil, nil) // zero-length must be a no-op
}

func TestDotMatchesSequentialSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100)
		a, b := make([]float64, n), make([]float64, n)
		var want float64
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			want += a[i] * b[i]
		}
		return math.Abs(Dot(a, b)-want) <= 1e-12*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The blocked, parallel kernels must agree with the naive reference at
// every parallelism limit, including shapes that are not multiples of the
// cache-block sizes.
func TestBlockedKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{{1, 1, 1}, {3, 5, 2}, {17, 129, 33}, {64, 64, 64}, {130, 257, 70}}
	for _, limit := range []int{1, 2, 8} {
		withdraw := par.Lend(make(par.Slots, limit-1)) // limit goroutines a region
		defer withdraw()
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := randDense(rng, m, k)
			b := randDense(rng, k, n)
			want := naiveMul(a, b)
			if got := Mul(a, b); !Equal(got, want, 1e-10) {
				t.Fatalf("limit=%d %v: Mul disagrees with naive", limit, sh)
			}
			if got := MulAtB(a.T(), b); !Equal(got, want, 1e-10) {
				t.Fatalf("limit=%d %v: MulAtB disagrees", limit, sh)
			}
			if got := MulABt(a, b.T()); !Equal(got, want, 1e-10) {
				t.Fatalf("limit=%d %v: MulABt disagrees", limit, sh)
			}
		}
		withdraw()
	}
}

// The parallel kernel must be deterministic: the same product computed at
// different limits is bit-for-bit identical (chunking never reassociates
// a given output element's accumulation).
func TestKernelsBitIdenticalAcrossLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randDense(rng, 70, 150)
	b := randDense(rng, 150, 90)
	at := a.T()
	serialOnly := par.Lend(make(par.Slots)) // no slot to borrow: serial
	serial := Mul(a, b)
	serialAtB := MulAtB(at, b)
	serialOnly()
	defer par.Lend(make(par.Slots, 7))() // seven helpers a region
	if !Equal(Mul(a, b), serial, 0) {
		t.Fatal("Mul is not bit-identical across limits")
	}
	if !Equal(MulAtB(at, b), serialAtB, 0) {
		t.Fatal("MulAtB is not bit-identical across limits")
	}
}

func TestMulAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randDense(rng, 9, 14)
	b := randDense(rng, 14, 6)
	seedOut := randDense(rng, 9, 6)
	dst := seedOut.Clone()
	MulAdd(dst, a, b)
	want := Add(seedOut, Mul(a, b))
	if !Equal(dst, want, 1e-12) {
		t.Fatal("MulAdd does not accumulate into dst")
	}

	at := a.T()
	dst2 := seedOut.Clone()
	MulAtBAdd(dst2, at, b)
	if !Equal(dst2, want, 1e-12) {
		t.Fatal("MulAtBAdd does not accumulate into dst")
	}

	bt := b.T()
	dst3 := seedOut.Clone()
	MulABtAdd(dst3, a, bt)
	if !Equal(dst3, want, 1e-12) {
		t.Fatal("MulABtAdd does not accumulate into dst")
	}
}

func TestMulAddShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"inner":  func() { MulAdd(New(2, 2), New(2, 3), New(2, 2)) },
		"dst":    func() { MulAdd(New(3, 3), New(2, 3), New(3, 2)) },
		"atbDst": func() { MulAtBAdd(New(2, 2), New(4, 3), New(4, 2)) },
		"abtDst": func() { MulABtAdd(New(2, 2), New(3, 4), New(2, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape panic", name)
				}
			}()
			fn()
		}()
	}
}

// EigSym must produce identical eigenpairs whether its rotation sweep runs
// on the caller alone or split over helpers. At the pca_eigh size, 280, the
// sweep's region has parts to split.
func TestEigSymBitIdenticalAcrossLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randDense(rng, 300, 280)
	a := MulAtB(g, g)
	serialOnly := par.Lend(make(par.Slots)) // no slot to borrow: serial
	v1, e1, err1 := EigSym(a)
	serialOnly()
	defer par.Lend(make(par.Slots, 7))() // seven helpers a region
	v2, e2, err2 := EigSym(a)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("convergence differs: %v vs %v", err1, err2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("eigenvalue %d differs across limits: %v vs %v", i, v1[i], v2[i])
		}
	}
	if !Equal(e1, e2, 0) {
		t.Fatal("eigenvectors differ across limits")
	}
}

// MulAtA's upper triangle is MulAtB(a, a)'s bit for bit, on serial and
// split regions alike, and its lower triangle is the exact mirror of its
// upper — also for zero columns (skipped terms) and −0 columns, where the
// two halves of MulAtB may differ in a zero's sign.
func TestMulAtAMatchesMulAtBUpperTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, sh := range [][2]int{{1, 1}, {5, 3}, {37, 20}, {300, 64}} {
		a := randDense(rng, sh[0], sh[1])
		for r := 0; r < a.Rows; r++ {
			a.Set(r, 0, 0)                           // a zero column
			a.Set(r, a.Cols/2, math.Copysign(0, -1)) // a −0 column
			if r%3 == 0 && a.Cols > 2 {
				a.Set(r, 2, 0) // a column with zero rows
			}
		}
		want := MulAtB(a, a)
		for _, slots := range []int{0, 7} {
			func() {
				defer par.Lend(make(par.Slots, slots))()
				got := MulAtA(a)
				n := a.Cols
				for i := 0; i < n; i++ {
					for j := i; j < n; j++ {
						if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
							t.Fatalf("%v slots=%d: (%d,%d) = %v, MulAtB %v", sh, slots, i, j, got.At(i, j), want.At(i, j))
						}
						if math.Float64bits(got.At(j, i)) != math.Float64bits(got.At(i, j)) {
							t.Fatalf("%v slots=%d: (%d,%d) = %v is not the mirror of %v", sh, slots, j, i, got.At(j, i), got.At(i, j))
						}
					}
				}
			}()
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks (the kernel-regression tripwires of the perf issue).

func benchGEMM(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(3))
	x := randDense(rng, n, n)
	y := randDense(rng, n, n)
	b.ReportAllocs()
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
	b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGEMM256(b *testing.B) { benchGEMM(b, 256) }

func BenchmarkGEMM512(b *testing.B) { benchGEMM(b, 512) }

// BenchmarkGEMM512Serial pins the kernel layer to one goroutine: the
// cache-blocking + unrolled micro-kernel gains without any parallelism, and
// the tripwire for regressions on the serial path.
func BenchmarkGEMM512Serial(b *testing.B) {
	defer par.Lend(make(par.Slots))() // no slot to borrow: serial
	benchGEMM(b, 512)
}

// benchEigSym decomposes the Gram matrix of rows Gaussian samples by n
// features.
func benchEigSym(b *testing.B, rows, n int) {
	g := randDense(rand.New(rand.NewSource(4)), rows, n)
	a := MulAtB(g, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigSym(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigSym(b *testing.B) { benchEigSym(b, 128, 128) }

// BenchmarkEigSym280 is the pca_eigh task of the CV workloads: the
// covariance of 1000 samples by 280 features.
func BenchmarkEigSym280(b *testing.B) { benchEigSym(b, 1000, 280) }

// BenchmarkMulAtB300x256 and BenchmarkMulAtA300x256 are one partial_gram
// block of the gram_remote workload, by the general and the symmetric
// kernel.
func BenchmarkMulAtB300x256(b *testing.B) {
	x := randDense(rand.New(rand.NewSource(6)), 300, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulAtB(x, x)
	}
}

func BenchmarkMulAtA300x256(b *testing.B) {
	x := randDense(rand.New(rand.NewSource(6)), 300, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulAtA(x)
	}
}

func BenchmarkMulABt512x64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randDense(rng, 512, 64)
	y := randDense(rng, 512, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulABt(x, y)
	}
}
