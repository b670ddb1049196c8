package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The AVX kernels against the Go loops: the Go side runs with useAVX off,
// the vector side with useAVX = haveAVX. Under -race or without AVX both
// sides are the Go loops.

// withGo runs f on the Go loops.
func withGo(f func()) {
	defer func() { useAVX = haveAVX }()
	useAVX = false
	f()
}

// sameBits reports whether x and y are the same float64 bit for bit, or
// both NaN. Which payload survives an add or multiply of two NaNs is not a
// property of the Go source: the compiler treats + and × as commutative and
// picks the operand order per register (today's Dot loop adds prod+s0 in
// lane 0 and s3+prod in lane 3), so no kernel can match it lane for lane.
// Every other result — ±0, ±Inf, subnormals, a lone NaN's payload — must
// match exactly.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// specials are the values whose bits a kernel most easily gets wrong.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -4.9e-310, math.MaxFloat64, -math.MaxFloat64,
	math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff4000000000abc),
	1, -1, 0.1, 3,
}

// checkKernels compares Dot and Axpy over a and the first len(a) elements
// of b, and MulABtAdd over a (one row) and the first rows·len(a) of b, on
// the Go loops and on the vector path, and the assembly called directly at
// every length, under the cutoff too.
func checkKernels(t *testing.T, a, b []float64, alpha float64, rows int) {
	t.Helper()
	n := len(a)

	var dotGo float64
	withGo(func() { dotGo = Dot(a, b) })
	if got := Dot(a, b); !sameBits(got, dotGo) {
		t.Fatalf("n=%d Dot = %v (%#x), Go loop %v (%#x)", n, got, math.Float64bits(got), dotGo, math.Float64bits(dotGo))
	}
	if haveAVX && n > 0 {
		if got := dotAVX(a, b); !sameBits(got, dotGo) {
			t.Fatalf("n=%d dotAVX = %v (%#x), Go loop %v (%#x)", n, got, math.Float64bits(got), dotGo, math.Float64bits(dotGo))
		}
	}

	yGo := append([]float64(nil), b[:n]...)
	withGo(func() { Axpy(alpha, a, yGo) })
	y := append([]float64(nil), b[:n]...)
	Axpy(alpha, a, y)
	yAsm := append([]float64(nil), b[:n]...)
	if haveAVX && n > 0 {
		axpyAVX(alpha, a, yAsm)
	} else {
		copy(yAsm, yGo)
	}
	for i := range yGo {
		if !sameBits(y[i], yGo[i]) || !sameBits(yAsm[i], yGo[i]) {
			t.Fatalf("n=%d Axpy[%d] = %v / asm %v, Go loop %v", n, i, y[i], yAsm[i], yGo[i])
		}
	}

	am := &Dense{Rows: 1, Cols: n, Data: a}
	bm := &Dense{Rows: rows, Cols: n, Data: b[:rows*n]}
	dGo := New(1, rows)
	for j := range dGo.Data {
		dGo.Data[j] = alpha * float64(j)
	}
	d := dGo.Clone()
	withGo(func() { MulABtAdd(dGo, am, bm) })
	MulABtAdd(d, am, bm)
	for j := range d.Data {
		if !sameBits(d.Data[j], dGo.Data[j]) {
			t.Fatalf("n=%d rows=%d MulABtAdd[%d] = %v, Go loops %v", n, rows, j, d.Data[j], dGo.Data[j])
		}
	}
	if haveAVX && n > 0 {
		var q [4]float64
		for j := 0; j+4 <= rows; j += 4 {
			dot4AVX(a, b[j*n:(j+4)*n], &q)
			for r := range q {
				var want float64
				withGo(func() { want = Dot(a, b[(j+r)*n:(j+r+1)*n]) })
				if !sameBits(q[r], want) {
					t.Fatalf("n=%d dot4AVX row %d = %v, Go Dot %v", n, j+r, q[r], want)
				}
			}
		}
	}
}

// TestVectorKernelsMatchGo runs the table: lengths 0–20 and the pinned
// problem sizes, starts that leave the slices off 32-byte alignment, and
// every b.Rows % 4, on random and special values.
func TestVectorKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	lengths := []int{119, 256, 280}
	for n := 0; n <= 20; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, off := range []int{0, 1, 2, 3} {
			for _, rows := range []int{4, 5, 6, 7, 8} {
				buf := make([]float64, off+n+rows*n)
				for i := range buf {
					buf[i] = rng.NormFloat64() * math.Exp(8*rng.NormFloat64())
					if rng.Intn(16) == 0 {
						buf[i] = specials[rng.Intn(len(specials))]
					}
				}
				checkKernels(t, buf[off:off+n], buf[off+n:], rng.NormFloat64(), rows)
			}
		}
	}
}

// FuzzKernelsMatchGo reads arbitrary bytes as two float64 slices of any bit
// pattern and runs Dot, Axpy and the MulABt panel on them, the vector path
// against the Go loops. n is the length, off the start within the first
// slice (so unaligned starts), rows the number of b rows.
func FuzzKernelsMatchGo(f *testing.F) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 119, 256, 280} {
		raw := make([]byte, 0, 16*n)
		for i := 0; i < 2*n; i++ {
			v := specials[(i*7+n)%len(specials)]
			if i%3 == 0 {
				v = float64(i) - 0.5*float64(n)
			}
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(raw, uint16(n), uint8(n%4), uint8(4+n%4))
	}
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, off, rows uint8) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		half := len(vals) / 2
		xs, ys := vals[:half], vals[half:]
		if len(xs) == 0 || len(ys) == 0 {
			xs, ys = []float64{1}, []float64{1}
		}
		length, start, nb := int(n)%300, int(off)%4, int(rows)%9
		a := make([]float64, start+length)
		for i := range a {
			a[i] = xs[i%len(xs)]
		}
		b := make([]float64, start+max(nb, 1)*length)
		for i := range b {
			b[i] = ys[i%len(ys)]
		}
		checkKernels(t, a[start:], b[start:], ys[0], nb)
	})
}

// The kernel ratios the vector path buys, each on the Go loops and on AVX
// (the /avx sub-benchmark skips where there is none): one nn_predict block
// product (100 queries by 100 stored rows of 119 PCA features), the dot
// product at that width, and one Axpy of a 256-wide Gram row.
func benchVecGo(b *testing.B, f func()) {
	b.Run("go", func(b *testing.B) {
		withGo(func() {
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	})
	b.Run("avx", func(b *testing.B) {
		if !haveAVX {
			b.Skip("no AVX kernels in this build")
		}
		for i := 0; i < b.N; i++ {
			f()
		}
	})
}

func BenchmarkMulABt100x119(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	q, x := randDense(rng, 100, 119), randDense(rng, 100, 119)
	dst := New(100, 100)
	benchVecGo(b, func() { MulABtInto(dst, q, x) })
}

func BenchmarkDot119(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x, y := randDense(rng, 1, 119).Data, randDense(rng, 1, 119).Data
	var sink float64
	benchVecGo(b, func() { sink += Dot(x, y) })
	_ = sink
}

func BenchmarkAxpy256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x, y := randDense(rng, 1, 256).Data, randDense(rng, 1, 256).Data
	benchVecGo(b, func() { Axpy(1e-3, x, y) })
}
