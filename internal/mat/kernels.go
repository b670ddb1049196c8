package mat

import (
	"fmt"

	"taskml/internal/par"
)

// This file holds the hot numeric layer: the unrolled dot/axpy
// micro-kernels (with their AVX twins in vec_amd64.s) and the
// cache-blocked, row-band-parallel GEMM variants that Mul/MulAtB/MulABt
// are built on, and the symmetric MulAtA.
// Parallelism goes through internal/par, whose helpers borrow the slots the
// compss worker pool leaves idle (see the par package comment).

// Cache-blocking parameters. kcBlock×(row bytes) keeps the streamed panel
// of b resident in L2 while a row band reuses it; jcBlock bounds the
// destination-row segment so the panel stays resident even for very wide
// matrices (kcBlock · jcBlock · 8 B ≈ 512 KiB).
const (
	kcBlock = 128
	jcBlock = 512
)

// gemmFlopFloor is the work (in multiply-adds) below which a kernel runs
// serially: smaller products are dominated by goroutine handoff.
const gemmFlopFloor = 1 << 15

// vecMinLen is the length from which Dot, Axpy and MulABtAdd's panel take
// the vector kernels. Measured through Dot and Axpy on a 2-core Xeon: at
// 3–5 elements the Go loops and the assembly tie at ≈ 8 ns a call, from 8
// the assembly is ≥ 20 % faster. So shorter vectors (eddl's 5-tap
// convolutions) stay in the Go loops.
const vecMinLen = 8

// useAVX selects the AVX kernels of vec_amd64.s where haveAVX allows them.
// Only tests flip it, to run the Go loops as the oracle.
var useAVX = haveAVX

// Dot returns the inner product of a and b. len(b) must be ≥ len(a); extra
// elements of b are ignored. Four accumulators keep the FP pipeline full;
// the summation order differs from a naive loop by at most the usual
// floating-point reassociation error. The AVX kernel holds the same four
// accumulators in the four lanes of one register and returns the same bits.
func Dot(a, b []float64) float64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	b = b[:n]
	if useAVX && n >= vecMinLen {
		return dotAVX(a, b)
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	for ; i < n; i++ {
		s0 += float64(a[i] * b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// Axpy accumulates y += alpha·x over len(x) elements. len(y) must be
// ≥ len(x).
func Axpy(alpha float64, x, y []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	y = y[:n]
	if useAVX && n >= vecMinLen {
		axpyAVX(alpha, x, y)
		return
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += float64(alpha * x[i])
		y[i+1] += float64(alpha * x[i+1])
		y[i+2] += float64(alpha * x[i+2])
		y[i+3] += float64(alpha * x[i+3])
	}
	for ; i < n; i++ {
		y[i] += float64(alpha * x[i])
	}
}

// rowGrain picks the number of output rows per parallel chunk so a chunk
// amortises its handoff: at least minRows, and enough rows to clear the
// flop floor.
func rowGrain(rows int, flopsPerRow float64) int {
	g := 1
	if flopsPerRow > 0 {
		g = int(gemmFlopFloor/flopsPerRow) + 1
	}
	if g < 4 {
		g = 4
	}
	if g > rows {
		g = rows
	}
	return g
}

// MulAdd accumulates the product a·b into dst (dst += a·b). It is the
// in-place GEMM behind Mul and the allocation-free accumulate variant used
// by eddl's Dense layer.
func MulAdd(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulAdd shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAdd dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	kdim, n := a.Cols, b.Cols
	par.For(a.Rows, rowGrain(a.Rows, 2*float64(kdim)*float64(n)), func(r0, r1 int) {
		for kk := 0; kk < kdim; kk += kcBlock {
			kend := kk + kcBlock
			if kend > kdim {
				kend = kdim
			}
			for jj := 0; jj < n; jj += jcBlock {
				jend := jj + jcBlock
				if jend > n {
					jend = n
				}
				for i := r0; i < r1; i++ {
					arow := a.Row(i)
					orow := dst.Row(i)[jj:jend]
					for k := kk; k < kend; k++ {
						if aik := arow[k]; aik != 0 {
							Axpy(aik, b.Row(k)[jj:jend], orow)
						}
					}
				}
			}
		}
	})
}

// MulAtBAdd accumulates aᵀ·b into dst (dst += aᵀ·b) without materialising
// the transpose. Row bands of dst (columns of a) run in parallel.
func MulAtBAdd(dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulAtBAdd shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAtBAdd dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	par.For(a.Cols, rowGrain(a.Cols, 2*float64(a.Rows)*float64(b.Cols)), func(i0, i1 int) {
		for r := 0; r < a.Rows; r++ {
			arow := a.Row(r)
			brow := b.Row(r)
			for i := i0; i < i1; i++ {
				if av := arow[i]; av != 0 {
					Axpy(av, brow, dst.Row(i))
				}
			}
		}
	})
}

// MulAtA computes the symmetric aᵀ·a with half of MulAtB's multiply-adds:
// row i of the result accumulates only its columns j ≥ i, by the same Axpy
// sequence MulAtBAdd runs over a row of a (ascending rows of a, a zero
// coefficient skipped), so the upper triangle is bit for bit MulAtB(a, a)'s;
// the lower triangle is then its exact mirror. Row bands of the upper
// triangle run in parallel.
func MulAtA(a *Dense) *Dense {
	n := a.Cols
	out := New(n, n)
	par.For(n, rowGrain(n, float64(a.Rows)*float64(n)), func(i0, i1 int) {
		for r := 0; r < a.Rows; r++ {
			arow := a.Row(r)
			for i := i0; i < i1; i++ {
				if av := arow[i]; av != 0 {
					Axpy(av, arow[i:], out.Data[i*n+i:(i+1)*n])
				}
			}
		}
	})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Data[j*n+i] = out.Data[i*n+j]
		}
	}
	return out
}

// MulABtAdd accumulates a·bᵀ into dst (dst += a·bᵀ). Each output element is
// a dot product of two stored rows, so the kernel is a row-band-parallel
// sweep of Dot calls; with AVX, a panel runs one row of a against four rows
// of b per pass (four Dots that share the loads of a, the same bits).
func MulABtAdd(dst, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulABtAdd shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulABtAdd dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	par.For(a.Rows, rowGrain(a.Rows, 2*float64(a.Cols)*float64(b.Rows)), func(r0, r1 int) {
		k := a.Cols
		var d [4]float64
		for i := r0; i < r1; i++ {
			arow := a.Row(i)
			orow := dst.Row(i)
			j := 0
			if useAVX && k >= vecMinLen {
				for ; j+4 <= b.Rows; j += 4 {
					dot4AVX(arow, b.Data[j*k:(j+4)*k], &d)
					orow[j] += d[0]
					orow[j+1] += d[1]
					orow[j+2] += d[2]
					orow[j+3] += d[3]
				}
			}
			for ; j < b.Rows; j++ {
				orow[j] += Dot(arow, b.Row(j))
			}
		}
	})
}
