package mat

import "fmt"

// This file holds the destination-reusing entry points of the GEMM layer:
// the *Into variants overwrite a caller-provided matrix instead of
// allocating one, so hot loops can keep a pooled scratch destination (see
// pool.go) alive across iterations. Each is the exact arithmetic of its
// allocating counterpart — MulABtInto zeroes the destination, then runs the
// shared accumulate kernel — so results are bit-identical to MulABt.

// MulABtInto computes dst = a·bᵀ, overwriting dst. dst must be pre-shaped
// to a.Rows×b.Rows and must not alias a or b.
func MulABtInto(dst, a, b *Dense) {
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulABtInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	clear(dst.Data)
	MulABtAdd(dst, a, b)
}

// TakeRowsInto copies the rows of m selected by idx into dst, which must be
// pre-shaped to len(idx)×m.Cols. It is TakeRows without the allocation.
func TakeRowsInto(dst, m *Dense, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != m.Cols {
		panic(fmt.Sprintf("mat: TakeRowsInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, len(idx), m.Cols))
	}
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
}

// RowNormsInto writes ‖row‖² for every row of x into dst (len ≥ x.Rows),
// via the shared Dot micro-kernel, and returns dst[:x.Rows].
func RowNormsInto(dst []float64, x *Dense) []float64 {
	dst = dst[:x.Rows]
	for i := range dst {
		row := x.Row(i)
		dst[i] = Dot(row, row)
	}
	return dst
}
