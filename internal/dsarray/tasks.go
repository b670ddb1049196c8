package dsarray

import (
	"fmt"

	"taskml/internal/exec"
	"taskml/internal/mat"
)

// Registered task bodies of the distributed array. Each is the
// argument-pure form of a block task dsarray submits: the loop state the
// original closures captured (column offsets, logical widths) travels as
// trailing scalar arguments, so the same body runs in-process and on a
// worker process byte-for-byte identically (see internal/exec).
func init() {
	// row_block: concatenate a row of blocks ([]any of *mat.Dense).
	exec.Register("row_block", func(args []any) (any, error) {
		blocks := args[0].([]any)
		parts := make([]*mat.Dense, 0, len(blocks))
		for _, v := range blocks {
			parts = append(parts, v.(*mat.Dense))
		}
		return mat.HStack(parts...), nil
	})

	// col_sum(blk, off, cols): per-column sums of one block, scattered into
	// a fresh 1×cols row at column offset off.
	exec.Register("col_sum", func(args []any) (any, error) {
		blk := args[0].(*mat.Dense)
		off := args[1].(int)
		cols := args[2].(int)
		full := mat.New(1, cols)
		sums := mat.ColSums(blk)
		copy(full.Row(0)[off:off+len(sums)], sums)
		return full, nil
	})

	// mat_add(x, y): freshly-allocated elementwise sum — the generic merge
	// of the ColSums / Gram / scaler reduction trees.
	exec.Register("mat_add", func(args []any) (any, error) {
		return mat.Add(args[0].(*mat.Dense), args[1].(*mat.Dense)), nil
	})

	// mat_add_to(dst, src): dst += src, returning dst. The in-place merge of
	// reductions whose partials are exclusively owned (ReduceOpts contract),
	// and the one body that writes to an argument: declared, so a worker
	// hands it a private copy of a cache-resident dst.
	exec.RegisterInPlace("mat_add_to", func(args []any) (any, error) {
		dst := args[0].(*mat.Dense)
		mat.AddInPlace(dst, args[1].(*mat.Dense))
		return dst, nil
	}, 0)

	// partial_gram(blk): blkᵀ·blk.
	exec.Register("partial_gram", func(args []any) (any, error) {
		blk := args[0].(*mat.Dense)
		return mat.MulAtB(blk, blk), nil
	})

	// center_block(blk, vec, off): blk minus the [off, off+cols) window of
	// the 1×d row vector vec, as a fresh block.
	exec.Register("center_block", func(args []any) (any, error) {
		blk := args[0].(*mat.Dense).Clone()
		vec := args[1].(*mat.Dense)
		off := args[2].(int)
		mat.SubRowVec(blk, vec.Row(0)[off:off+blk.Cols])
		return blk, nil
	})

	// transform_block(blk, w): blk·w.
	exec.Register("transform_block", func(args []any) (any, error) {
		blk := args[0].(*mat.Dense)
		wm := args[1].(*mat.Dense)
		if wm.Rows != blk.Cols {
			return nil, fmt.Errorf("dsarray: transform shape mismatch %dx%d · %dx%d", blk.Rows, blk.Cols, wm.Rows, wm.Cols)
		}
		return mat.Mul(blk, wm), nil
	})

	// gemm_block(x, y): one partial product of the blocked GEMM, into a
	// fresh output block (the gemm_add reduction merges in place, so each
	// partial must be exclusively owned and never alias an input block).
	exec.Register("gemm_block", func(args []any) (any, error) {
		x := args[0].(*mat.Dense)
		y := args[1].(*mat.Dense)
		if x.Cols != y.Rows {
			return nil, fmt.Errorf("dsarray: block product %dx%d · %dx%d", x.Rows, x.Cols, y.Rows, y.Cols)
		}
		p := mat.New(x.Rows, y.Cols)
		mat.MulAdd(p, x, y)
		return p, nil
	})

	// transpose_block(blk): blkᵀ.
	exec.Register("transpose_block", func(args []any) (any, error) {
		return args[0].(*mat.Dense).T(), nil
	})
}
