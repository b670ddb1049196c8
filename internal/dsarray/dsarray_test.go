package dsarray

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"taskml/internal/compss"
	"taskml/internal/mat"
)

func newRT() *compss.Runtime { return compss.New(compss.Config{Workers: 4}) }

func randMatrix(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestRoundTripCollect(t *testing.T) {
	rt := newRT()
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, 17, 11)
	a := FromMatrix(rt.Main(), m, 5, 4)
	got, err := a.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(got, m, 0) {
		t.Fatal("Collect does not round-trip FromMatrix")
	}
}

func TestBlockGridShape(t *testing.T) {
	rt := newRT()
	m := mat.New(17, 11)
	a := FromMatrix(rt.Main(), m, 5, 4)
	if a.NumRowBlocks() != 4 || a.NumColBlocks() != 3 {
		t.Fatalf("grid = %dx%d, want 4x3", a.NumRowBlocks(), a.NumColBlocks())
	}
	if a.Rows() != 17 || a.Cols() != 11 || a.BlockRows() != 5 || a.BlockCols() != 4 {
		t.Fatal("shape metadata wrong")
	}
	if a.RowBlockRows(3) != 2 {
		t.Fatalf("last row block height = %d, want 2", a.RowBlockRows(3))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	// One load task per block.
	if n := rt.Graph().CountByName()["load_block"]; n != 12 {
		t.Fatalf("load tasks = %d, want 12", n)
	}
}

func TestExactBlockingNoRemainder(t *testing.T) {
	rt := newRT()
	m := mat.New(10, 8)
	a := FromMatrix(rt.Main(), m, 5, 4)
	if a.NumRowBlocks() != 2 || a.NumColBlocks() != 2 {
		t.Fatalf("grid = %dx%d, want 2x2", a.NumRowBlocks(), a.NumColBlocks())
	}
}

func TestInvalidBlockSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FromMatrix(newRT().Main(), mat.New(2, 2), 0, 1)
}

func TestRowBlockConcatenation(t *testing.T) {
	rt := newRT()
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(rng, 9, 10)
	a := FromMatrix(rt.Main(), m, 4, 3)
	for i := 0; i < a.NumRowBlocks(); i++ {
		v, err := rt.Get(a.RowBlock(i))
		if err != nil {
			t.Fatal(err)
		}
		blk := v.(*mat.Dense)
		r0 := i * 4
		r1 := r0 + blk.Rows
		if !mat.Equal(blk, m.Slice(r0, r1, 0, 10), 0) {
			t.Fatalf("row block %d mismatch", i)
		}
	}
}

func TestRowBlockCached(t *testing.T) {
	rt := newRT()
	m := mat.New(8, 8)
	a := FromMatrix(rt.Main(), m, 4, 4)
	f1 := a.RowBlock(0)
	f2 := a.RowBlock(0)
	if f1 != f2 {
		t.Fatal("RowBlock not cached")
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if n := rt.Graph().CountByName()["row_block"]; n != 1 {
		t.Fatalf("row_block tasks = %d, want 1", n)
	}
}

func TestRowBlockSingleColumnBlockIsDirect(t *testing.T) {
	rt := newRT()
	m := mat.New(8, 4)
	a := FromMatrix(rt.Main(), m, 4, 4)
	if a.RowBlock(0) != a.Block(0, 0) {
		t.Fatal("single-col-block row block should be the block itself")
	}
}

func TestMapPreservesBlockingAndApplies(t *testing.T) {
	rt := newRT()
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(rng, 7, 5)
	a := FromMatrix(rt.Main(), m, 3, 2)
	doubled := a.Map("double", func(r, c int) float64 { return 0 }, func(b *mat.Dense) *mat.Dense {
		return mat.Scale(2, b)
	})
	got, err := doubled.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(got, mat.Scale(2, m), 1e-12) {
		t.Fatal("Map(double) wrong")
	}
	if doubled.NumRowBlocks() != a.NumRowBlocks() || doubled.NumColBlocks() != a.NumColBlocks() {
		t.Fatal("Map changed blocking")
	}
}

func TestColSumsMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := newRT()
		r, c := 1+rng.Intn(20), 1+rng.Intn(10)
		m := randMatrix(rng, r, c)
		a := FromMatrix(rt.Main(), m, 1+rng.Intn(8), 1+rng.Intn(6))
		v, err := rt.Get(a.ColSums())
		if err != nil {
			return false
		}
		got := v.(*mat.Dense)
		want := mat.ColSums(m)
		for j := 0; j < c; j++ {
			if math.Abs(got.At(0, j)-want[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGramMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := newRT()
		r, c := 2+rng.Intn(20), 1+rng.Intn(8)
		m := randMatrix(rng, r, c)
		a := FromMatrix(rt.Main(), m, 1+rng.Intn(7), 1+rng.Intn(4))
		v, err := rt.Get(a.Gram())
		if err != nil {
			return false
		}
		return mat.Equal(v.(*mat.Dense), mat.MulAtB(m, m), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSubRowVecCenters(t *testing.T) {
	rt := newRT()
	rng := rand.New(rand.NewSource(5))
	m := randMatrix(rng, 12, 7)
	a := FromMatrix(rt.Main(), m, 5, 3)
	sums := a.ColSums()
	means := rt.Submit(compss.Opts{Name: "mean"}, func(_ *compss.TaskCtx, args []any) (any, error) {
		s := args[0].(*mat.Dense)
		return mat.Scale(1/float64(m.Rows), s), nil
	}, sums)
	centered, err := a.SubRowVec(means).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range mat.ColMeans(centered) {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("column %d mean = %v after centering", j, v)
		}
	}
	// Original array must be untouched.
	orig, err := a.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(orig, m, 0) {
		t.Fatal("SubRowVec mutated source blocks")
	}
}

func TestMulDense(t *testing.T) {
	rt := newRT()
	rng := rand.New(rand.NewSource(6))
	m := randMatrix(rng, 9, 6)
	w := randMatrix(rng, 6, 2)
	a := FromMatrix(rt.Main(), m, 4, 3)
	wf := rt.Submit(compss.Opts{Name: "w"}, func(_ *compss.TaskCtx, _ []any) (any, error) { return w, nil })
	prod := a.MulDense(wf, 2)
	got, err := prod.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(got, mat.Mul(m, w), 1e-10) {
		t.Fatal("MulDense disagrees with serial product")
	}
	if prod.Cols() != 2 || prod.NumColBlocks() != 1 || prod.NumRowBlocks() != a.NumRowBlocks() {
		t.Fatal("MulDense output blocking wrong")
	}
}

func TestMulDenseShapeErrorPropagates(t *testing.T) {
	rt := newRT()
	m := mat.New(4, 3)
	a := FromMatrix(rt.Main(), m, 2, 3)
	bad := rt.Submit(compss.Opts{Name: "w"}, func(_ *compss.TaskCtx, _ []any) (any, error) {
		return mat.New(5, 2), nil // wrong inner dim
	})
	if _, err := a.MulDense(bad, 2).Collect(); err == nil {
		t.Fatal("want shape error")
	}
}

func TestReduceTreeShape(t *testing.T) {
	rt := newRT()
	var futs []*compss.Future
	for i := 0; i < 8; i++ {
		v := float64(i)
		futs = append(futs, rt.Submit(compss.Opts{Name: "leaf"}, func(_ *compss.TaskCtx, _ []any) (any, error) {
			return mat.NewFromData(1, 1, []float64{v}), nil
		}))
	}
	total := Reduce(rt.Main(), "merge", futs, 0, 8, func(x, y *mat.Dense) *mat.Dense { return mat.Add(x, y) })
	v, err := rt.Get(total)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*mat.Dense).At(0, 0) != 28 {
		t.Fatalf("reduce sum = %v, want 28", v.(*mat.Dense).At(0, 0))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	// 8 leaves → 4+2+1 merges.
	if n := rt.Graph().CountByName()["merge"]; n != 7 {
		t.Fatalf("merge tasks = %d, want 7", n)
	}
}

func TestReduceOddCount(t *testing.T) {
	rt := newRT()
	var futs []*compss.Future
	for i := 0; i < 5; i++ {
		v := float64(i)
		futs = append(futs, rt.Submit(compss.Opts{Name: "leaf"}, func(_ *compss.TaskCtx, _ []any) (any, error) {
			return mat.NewFromData(1, 1, []float64{v}), nil
		}))
	}
	total := Reduce(rt.Main(), "merge", futs, 0, 8, func(x, y *mat.Dense) *mat.Dense { return mat.Add(x, y) })
	v, err := rt.Get(total)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*mat.Dense).At(0, 0) != 10 {
		t.Fatalf("reduce sum = %v, want 10", v.(*mat.Dense).At(0, 0))
	}
}

func TestReduceSingle(t *testing.T) {
	rt := newRT()
	f := rt.Submit(compss.Opts{Name: "leaf"}, func(_ *compss.TaskCtx, _ []any) (any, error) {
		return mat.NewFromData(1, 1, []float64{7}), nil
	})
	out := Reduce(rt.Main(), "merge", []*compss.Future{f}, 0, 8, func(x, y *mat.Dense) *mat.Dense { return mat.Add(x, y) })
	if out != f {
		t.Fatal("Reduce of one future must return it unchanged")
	}
}

func TestReduceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Reduce(newRT().Main(), "m", nil, 0, 0, func(x, y *mat.Dense) *mat.Dense { return x })
}

func TestGraphValidAfterPipeline(t *testing.T) {
	rt := newRT()
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(rng, 20, 12)
	a := FromMatrix(rt.Main(), m, 6, 5)
	sums := a.ColSums()
	means := rt.Submit(compss.Opts{Name: "mean"}, func(_ *compss.TaskCtx, args []any) (any, error) {
		return mat.Scale(1/float64(m.Rows), args[0].(*mat.Dense)), nil
	}, sums)
	centered := a.SubRowVec(means)
	if _, err := rt.Get(centered.Gram()); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	if rt.Graph().CriticalPath() <= 0 {
		t.Fatal("pipeline critical path must be positive")
	}
}

func BenchmarkGram32Blocks(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := randMatrix(rng, 512, 64)
	for i := 0; i < b.N; i++ {
		rt := newRT()
		a := FromMatrix(rt.Main(), m, 16, 64)
		if _, err := rt.Get(a.Gram()); err != nil {
			b.Fatal(err)
		}
	}
}

// A reduction that loses a merge fails: the merge exhausts its retries and
// the error reaches the root through every later merge, rather than a sum
// of the surviving partials standing in for the whole.
func TestReduceTreeLostMergeFailsTheReduction(t *testing.T) {
	rt := compss.New(compss.Config{
		Workers:        4,
		DefaultRetries: 1,
		Faults: &compss.FaultPlan{Faults: []compss.Fault{
			{Name: "sum_merge", Nth: 0, Attempts: -1, Mode: compss.FaultError},
		}},
	})
	tc := rt.Main()
	vals := []float64{1, 2, 4, 8}
	futs := make([]*compss.Future, len(vals))
	for i, v := range vals {
		vv := v
		futs[i] = tc.Submit(compss.Opts{Name: "leaf", Cost: 1, OutBytes: 8},
			func(_ *compss.TaskCtx, _ []any) (any, error) {
				m := mat.New(1, 1)
				m.Set(0, 0, vv)
				return m, nil
			})
	}
	red := ReduceTree(tc, ReduceOpts{Name: "sum_merge", Cost: 1, OutBytes: 8}, futs,
		func(a, b *mat.Dense) *mat.Dense {
			out := a.Clone()
			out.Set(0, 0, a.At(0, 0)+b.At(0, 0))
			return out
		})
	if v, err := tc.Get(red); !errors.Is(err, compss.ErrInjectedFault) {
		t.Fatalf("Get(root) = %v, %v; want the lost merge's injected fault, not the partial sum 12", v, err)
	}
	if err := rt.Barrier(); !errors.Is(err, compss.ErrInjectedFault) {
		t.Fatalf("Barrier = %v, want the lost merge's injected fault", err)
	}
}
