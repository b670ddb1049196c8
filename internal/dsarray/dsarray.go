package dsarray

import (
	"fmt"

	"taskml/internal/compss"
	"taskml/internal/costs"
	"taskml/internal/mat"
)

// Array is a block-partitioned 2-D dataset. Blocks are futures resolving to
// *mat.Dense; the logical shape and the regular block size are metadata kept
// on the master, as in dislib.
type Array struct {
	tc           *compss.TaskCtx
	rows, cols   int
	brows, bcols int
	blocks       [][]*compss.Future // [rowBlock][colBlock]

	rowBlockCache []*compss.Future // lazily built hstacked row blocks
}

// FromMatrix partitions m into blocks of brows×bcols (edge blocks may be
// smaller), submitting one load task per block — the paper notes the
// 500×500 blocking of its dataset "generat[es] 631 tasks managed by
// PyCOMPSs".
func FromMatrix(tc *compss.TaskCtx, m *mat.Dense, brows, bcols int) *Array {
	if brows <= 0 || bcols <= 0 {
		panic(fmt.Sprintf("dsarray: invalid block size %dx%d", brows, bcols))
	}
	a := &Array{tc: tc, rows: m.Rows, cols: m.Cols, brows: brows, bcols: bcols}
	nrb, ncb := a.NumRowBlocks(), a.NumColBlocks()
	a.blocks = make([][]*compss.Future, nrb)
	for i := 0; i < nrb; i++ {
		a.blocks[i] = make([]*compss.Future, ncb)
		for j := 0; j < ncb; j++ {
			r0, r1 := a.rowRange(i)
			c0, c1 := a.colRange(j)
			sub := m.Slice(r0, r1, c0, c1) // sliced eagerly; the task carries the block
			a.blocks[i][j] = tc.Submit(compss.Opts{
				Name:     "load_block",
				Cost:     costs.Copy(r1-r0, c1-c0),
				OutBytes: costs.Bytes(r1-r0, c1-c0),
			}, func(_ *compss.TaskCtx, args []any) (any, error) {
				return args[0].(*mat.Dense), nil
			}, sub)
		}
	}
	return a
}

// FromBlocks wraps an existing grid of block futures (each resolving to
// *mat.Dense) into an Array. Estimators use it to return distributed
// results without synchronising.
func FromBlocks(tc *compss.TaskCtx, blocks [][]*compss.Future, rows, cols, brows, bcols int) *Array {
	return &Array{tc: tc, rows: rows, cols: cols, brows: brows, bcols: bcols, blocks: blocks}
}

// Rows returns the logical row count.
func (a *Array) Rows() int { return a.rows }

// Cols returns the logical column count.
func (a *Array) Cols() int { return a.cols }

// BlockRows returns the regular block height.
func (a *Array) BlockRows() int { return a.brows }

// BlockCols returns the regular block width.
func (a *Array) BlockCols() int { return a.bcols }

// NumRowBlocks returns the number of block rows.
func (a *Array) NumRowBlocks() int { return (a.rows + a.brows - 1) / a.brows }

// NumColBlocks returns the number of block columns.
func (a *Array) NumColBlocks() int { return (a.cols + a.bcols - 1) / a.bcols }

// Ctx returns the submitting task context.
func (a *Array) Ctx() *compss.TaskCtx { return a.tc }

// Block returns the future of block (i, j).
func (a *Array) Block(i, j int) *compss.Future { return a.blocks[i][j] }

func (a *Array) rowRange(i int) (int, int) {
	r0 := i * a.brows
	r1 := r0 + a.brows
	if r1 > a.rows {
		r1 = a.rows
	}
	return r0, r1
}

func (a *Array) colRange(j int) (int, int) {
	c0 := j * a.bcols
	c1 := c0 + a.bcols
	if c1 > a.cols {
		c1 = a.cols
	}
	return c0, c1
}

// RowBlockRows returns the height of row block i.
func (a *Array) RowBlockRows(i int) int {
	r0, r1 := a.rowRange(i)
	return r1 - r0
}

// RowBlock returns a future resolving to the full row block i (all column
// blocks concatenated). dislib estimators whose parallelism "is based on
// the number of row blocks" (CSVM, KNN, the scaler) consume these. The
// concatenation task is submitted once per row block and cached.
func (a *Array) RowBlock(i int) *compss.Future {
	if a.rowBlockCache == nil {
		a.rowBlockCache = make([]*compss.Future, a.NumRowBlocks())
	}
	if f := a.rowBlockCache[i]; f != nil {
		return f
	}
	if a.NumColBlocks() == 1 {
		a.rowBlockCache[i] = a.blocks[i][0]
		return a.blocks[i][0]
	}
	r0, r1 := a.rowRange(i)
	f := a.tc.SubmitExec(compss.Opts{
		Name:     "row_block",
		Exec:     "row_block",
		Cost:     costs.Copy(r1-r0, a.cols),
		OutBytes: costs.Bytes(r1-r0, a.cols),
	}, a.blocks[i])
	a.rowBlockCache[i] = f
	return f
}

// Collect synchronises on every block and assembles the full matrix on the
// master. Like dislib's collect() it is a synchronisation point — one: the
// blocks are waited for together, so those a worker holds come home in one
// round trip a worker (compss.TaskCtx.GetAll).
func (a *Array) Collect() (*mat.Dense, error) {
	var all []*compss.Future
	for _, row := range a.blocks {
		all = append(all, row...)
	}
	vals, err := a.tc.GetAll(all)
	if err != nil {
		return nil, err
	}
	rowParts := make([]*mat.Dense, a.NumRowBlocks())
	for i := range a.blocks {
		colParts := make([]*mat.Dense, a.NumColBlocks())
		for j := range colParts {
			colParts[j] = vals[i*len(colParts)+j].(*mat.Dense)
		}
		rowParts[i] = mat.HStack(colParts...)
	}
	return mat.VStack(rowParts...), nil
}

// Map applies f to every block through one task per block, preserving the
// blocking. costFn receives each block's dimensions and returns the task's
// virtual cost; name labels the tasks in the graph.
func (a *Array) Map(name string, costFn func(r, c int) float64, f func(*mat.Dense) *mat.Dense) *Array {
	out := make([][]*compss.Future, a.NumRowBlocks())
	for i := range a.blocks {
		out[i] = make([]*compss.Future, a.NumColBlocks())
		for j := range a.blocks[i] {
			r0, r1 := a.rowRange(i)
			c0, c1 := a.colRange(j)
			out[i][j] = a.tc.Submit(compss.Opts{
				Name:     name,
				Cost:     costFn(r1-r0, c1-c0),
				OutBytes: costs.Bytes(r1-r0, c1-c0),
			}, func(_ *compss.TaskCtx, args []any) (any, error) {
				return f(args[0].(*mat.Dense)), nil
			}, a.blocks[i][j])
		}
	}
	return FromBlocks(a.tc, out, a.rows, a.cols, a.brows, a.bcols)
}

// ColSums computes the per-column sums as a future of a 1×cols matrix,
// using one partial-sum task per block and a pairwise reduction tree — the
// first map-reduce phase of dislib's PCA.
func (a *Array) ColSums() *compss.Future {
	partials := make([]*compss.Future, 0, a.NumRowBlocks()*a.NumColBlocks())
	for i := range a.blocks {
		for j := range a.blocks[i] {
			r0, r1 := a.rowRange(i)
			c0, c1 := a.colRange(j)
			partials = append(partials, a.tc.SubmitExec(compss.Opts{
				Name:     "col_sum",
				Exec:     "col_sum",
				Cost:     costs.Copy(r1-r0, c1-c0),
				OutBytes: costs.Bytes(1, a.cols),
			}, a.blocks[i][j], j*a.bcols, a.cols))
		}
	}
	return ReduceTree(a.tc, ReduceOpts{
		Name: "sum_merge", Exec: "mat_add",
		Cost: costs.Copy(1, a.cols), OutBytes: costs.Bytes(1, a.cols),
	}, partials, nil)
}

// Gram computes xᵀx as a future of a cols×cols matrix: one partial Gram
// task per row block plus a pairwise reduction — the covariance estimation
// phase of the paper's PCA ("partitioning the samples only by row blocks.
// Hence, an unpartitioned covariance matrix ... is obtained").
func (a *Array) Gram() *compss.Future {
	partials := make([]*compss.Future, a.NumRowBlocks())
	for i := 0; i < a.NumRowBlocks(); i++ {
		rb := a.RowBlock(i)
		h := a.RowBlockRows(i)
		partials[i] = a.tc.SubmitExec(compss.Opts{
			Name:     "partial_gram",
			Exec:     "partial_gram",
			Cost:     costs.Gemm(a.cols, h, a.cols),
			OutBytes: costs.Bytes(a.cols, a.cols),
		}, rb)
	}
	return ReduceTree(a.tc, ReduceOpts{
		Name: "gram_merge", Exec: "mat_add",
		Cost: costs.Copy(a.cols, a.cols), OutBytes: costs.Bytes(a.cols, a.cols),
	}, partials, nil)
}

// SubRowVec subtracts a (future) 1×cols row vector from every row of every
// block — the centering step of PCA and the scaler.
func (a *Array) SubRowVec(v *compss.Future) *Array {
	out := make([][]*compss.Future, a.NumRowBlocks())
	for i := range a.blocks {
		out[i] = make([]*compss.Future, a.NumColBlocks())
		for j := range a.blocks[i] {
			r0, r1 := a.rowRange(i)
			c0, c1 := a.colRange(j)
			out[i][j] = a.tc.SubmitExec(compss.Opts{
				Name:     "center_block",
				Exec:     "center_block",
				Cost:     costs.Copy(r1-r0, c1-c0),
				OutBytes: costs.Bytes(r1-r0, c1-c0),
			}, a.blocks[i][j], v, j*a.bcols)
		}
	}
	return FromBlocks(a.tc, out, a.rows, a.cols, a.brows, a.bcols)
}

// MulDense computes a·w for a (future) dense cols×outCols matrix w,
// producing an Array with the same row blocking and a single column block —
// the PCA transform applied per row block.
func (a *Array) MulDense(w *compss.Future, outCols int) *Array {
	nrb := a.NumRowBlocks()
	out := make([][]*compss.Future, nrb)
	for i := 0; i < nrb; i++ {
		rb := a.RowBlock(i)
		h := a.RowBlockRows(i)
		out[i] = []*compss.Future{a.tc.SubmitExec(compss.Opts{
			Name:     "transform_block",
			Exec:     "transform_block",
			Cost:     costs.Gemm(h, a.cols, outCols),
			OutBytes: costs.Bytes(h, outCols),
		}, rb, w)}
	}
	return FromBlocks(a.tc, out, a.rows, outCols, a.brows, outCols)
}

// ReduceOpts parameterises a reduction tree.
type ReduceOpts struct {
	// Name labels the merge tasks in the captured graph.
	Name string
	// Exec, when non-empty, names a registered backend function (see
	// internal/exec) used as the merge body instead of the closure passed to
	// ReduceTree — merges of an Exec reduction can run on worker processes
	// when the runtime has a remote backend. The function must be binary:
	// merge(x, y) with both arguments *mat.Dense.
	Exec string
	// Cost and OutBytes describe each merge task.
	Cost     float64
	OutBytes int64
}

// Reduce merges a slice of futures pairwise with a binary task tree — the
// reduction pattern of dislib (and of the CSVM cascade). mergeCost and
// outBytes describe each merge task; f combines two partial results.
func Reduce(tc *compss.TaskCtx, name string, futs []*compss.Future, mergeCost float64, outBytes int64, f func(x, y *mat.Dense) *mat.Dense) *compss.Future {
	return ReduceTree(tc, ReduceOpts{Name: name, Cost: mergeCost, OutBytes: outBytes}, futs, f)
}

// ReduceTree is Reduce with full per-merge options. When o.Exec names a
// registered merge, f is unused (pass nil) and the merges dispatch through
// the runtime's execution backend.
func ReduceTree(tc *compss.TaskCtx, o ReduceOpts, futs []*compss.Future, f func(x, y *mat.Dense) *mat.Dense) *compss.Future {
	if len(futs) == 0 {
		panic("dsarray: Reduce of zero futures")
	}
	if o.Exec == "" && f == nil {
		panic("dsarray: ReduceTree needs a merge function or ReduceOpts.Exec")
	}
	merge := func(x, y *compss.Future) *compss.Future {
		opts := compss.Opts{
			Name:     o.Name,
			Exec:     o.Exec,
			Cost:     o.Cost,
			OutBytes: o.OutBytes,
		}
		if o.Exec != "" {
			return tc.SubmitExec(opts, x, y)
		}
		return tc.Submit(opts, func(_ *compss.TaskCtx, args []any) (any, error) {
			return f(args[0].(*mat.Dense), args[1].(*mat.Dense)), nil
		}, x, y)
	}
	level := futs
	for len(level) > 1 {
		next := make([]*compss.Future, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			next = append(next, merge(level[i], level[i+1]))
		}
		level = next
	}
	return level[0]
}
