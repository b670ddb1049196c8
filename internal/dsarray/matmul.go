package dsarray

import (
	"fmt"

	"taskml/internal/compss"
	"taskml/internal/costs"
)

// MatMul computes the distributed matrix product a·b as a new Array with
// a's row blocking and b's column blocking — dislib's blocked GEMM: one
// partial-product task per (i, k, j) block triple and a pairwise reduction
// per output block over k.
//
// Block shapes must be conformable: a's block columns must equal b's block
// rows (both arrays tile the shared dimension identically, dislib's
// requirement as well).
func MatMul(a, b *Array) (*Array, error) {
	if a.Cols() != b.Rows() {
		return nil, fmt.Errorf("dsarray: MatMul shape mismatch %dx%d · %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	if a.BlockCols() != b.BlockRows() {
		return nil, fmt.Errorf("dsarray: MatMul block mismatch: a has %d block cols, b has %d block rows",
			a.BlockCols(), b.BlockRows())
	}
	tc := a.Ctx()
	nrb, ncb := a.NumRowBlocks(), b.NumColBlocks()
	kb := a.NumColBlocks()

	out := make([][]*compss.Future, nrb)
	for i := 0; i < nrb; i++ {
		out[i] = make([]*compss.Future, ncb)
		r0, r1 := a.rowRange(i)
		h := r1 - r0
		for j := 0; j < ncb; j++ {
			c0, c1 := b.colRange(j)
			w := c1 - c0
			partials := make([]*compss.Future, kb)
			for k := 0; k < kb; k++ {
				k0, k1 := a.colRange(k)
				depth := k1 - k0
				partials[k] = tc.SubmitExec(compss.Opts{
					Name:     "gemm_block",
					Exec:     "gemm_block",
					Cost:     costs.Gemm(h, depth, w),
					OutBytes: costs.Bytes(h, w),
				}, a.Block(i, k), b.Block(k, j))
			}
			// mat_add_to merges in place: each partial is a fresh gemm_block
			// output exclusively owned by this reduction, so mutating it is
			// safe and saves one block allocation per merge.
			out[i][j] = ReduceTree(tc, ReduceOpts{
				Name: "gemm_add", Exec: "mat_add_to",
				Cost: costs.Copy(h, w), OutBytes: costs.Bytes(h, w),
			}, partials, nil)
		}
	}
	return FromBlocks(tc, out, a.Rows(), b.Cols(), a.BlockRows(), b.BlockCols()), nil
}

// Transpose returns aᵀ as a new Array with transposed blocking, one task
// per block.
func (a *Array) Transpose() *Array {
	tc := a.Ctx()
	nrb, ncb := a.NumRowBlocks(), a.NumColBlocks()
	out := make([][]*compss.Future, ncb)
	for j := 0; j < ncb; j++ {
		out[j] = make([]*compss.Future, nrb)
	}
	for i := 0; i < nrb; i++ {
		r0, r1 := a.rowRange(i)
		for j := 0; j < ncb; j++ {
			c0, c1 := a.colRange(j)
			out[j][i] = tc.SubmitExec(compss.Opts{
				Name:     "transpose_block",
				Exec:     "transpose_block",
				Cost:     costs.Copy(r1-r0, c1-c0),
				OutBytes: costs.Bytes(c1-c0, r1-r0),
			}, a.Block(i, j))
		}
	}
	return FromBlocks(tc, out, a.Cols(), a.Rows(), a.BlockCols(), a.BlockRows())
}
