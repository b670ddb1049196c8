package knn

import (
	"math/rand"
	"testing"

	"taskml/internal/compss"
	"taskml/internal/dsarray"
	"taskml/internal/mat"
)

func newRT() *compss.Runtime { return compss.New(compss.Config{Workers: 4}) }

func blobs(rng *rand.Rand, n, d int, sep float64) (*mat.Dense, []int) {
	x := mat.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		off := -sep / 2
		if c == 1 {
			off = sep / 2
		}
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.NormFloat64()+off)
		}
	}
	return x, y
}

func fitKNN(t *testing.T, rt *compss.Runtime, x *mat.Dense, y []int, brows int, p Params) *KNN {
	t.Helper()
	xa := dsarray.FromMatrix(rt.Main(), x, brows, x.Cols)
	ya := dsarray.FromLabels(rt.Main(), y, brows)
	m := &KNN{Params: p}
	if err := m.Fit(xa, ya); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestKNNSeparableBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := blobs(rng, 200, 3, 6)
	rt := newRT()
	m := fitKNN(t, rt, x, y, 40, Params{K: 5})
	xt, yt := blobs(rng, 80, 3, 6)
	xta := dsarray.FromMatrix(rt.Main(), xt, 40, 3)
	yta := dsarray.FromLabels(rt.Main(), yt, 40)
	acc, err := m.Score(xta, yta)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("accuracy %v", acc)
	}
}

func TestKNNK1PerfectOnTrainingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := blobs(rng, 60, 2, 1)
	rt := newRT()
	m := fitKNN(t, rt, x, y, 13, Params{K: 1})
	xa := dsarray.FromMatrix(rt.Main(), x, 13, 2)
	ya := dsarray.FromLabels(rt.Main(), y, 13)
	acc, err := m.Score(xa, ya)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("1-NN training accuracy %v, want 1 (each point is its own neighbor)", acc)
	}
}

func TestKNNKnownGeometry(t *testing.T) {
	// Points on a line; query near cluster of label 1.
	x := mat.NewFromRows([][]float64{{0}, {1}, {2}, {10}, {11}, {12}})
	y := []int{0, 0, 0, 1, 1, 1}
	rt := newRT()
	m := fitKNN(t, rt, x, y, 2, Params{K: 3})
	q := dsarray.FromMatrix(rt.Main(), mat.NewFromRows([][]float64{{10.4}, {1.2}}), 2, 1)
	pred, err := m.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := dsarray.CollectLabels(pred)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != 1 || labels[1] != 0 {
		t.Fatalf("labels = %v, want [1 0]", labels)
	}
}

func TestKNNDistanceWeighting(t *testing.T) {
	// Two label-0 points slightly farther than one label-1 point; with K=3
	// uniform voting picks 0 (2 votes), distance weighting picks 1 (closest
	// dominates when much closer).
	x := mat.NewFromRows([][]float64{{0.1}, {3}, {3.2}})
	y := []int{1, 0, 0}
	rt := newRT()
	q := mat.NewFromRows([][]float64{{0}})

	uni := fitKNN(t, rt, x, y, 3, Params{K: 3, Weights: Uniform})
	qa := dsarray.FromMatrix(rt.Main(), q, 1, 1)
	pu, err := uni.Predict(qa)
	if err != nil {
		t.Fatal(err)
	}
	lu, _ := dsarray.CollectLabels(pu)

	rt2 := newRT()
	dist := &KNN{Params: Params{K: 3, Weights: Distance}}
	xa2 := dsarray.FromMatrix(rt2.Main(), x, 3, 1)
	ya2 := dsarray.FromLabels(rt2.Main(), y, 3)
	if err := dist.Fit(xa2, ya2); err != nil {
		t.Fatal(err)
	}
	qa2 := dsarray.FromMatrix(rt2.Main(), q, 1, 1)
	pd, err := dist.Predict(qa2)
	if err != nil {
		t.Fatal(err)
	}
	ld, _ := dsarray.CollectLabels(pd)

	if lu[0] != 0 {
		t.Fatalf("uniform vote = %d, want 0", lu[0])
	}
	if ld[0] != 1 {
		t.Fatalf("distance vote = %d, want 1", ld[0])
	}
}

func TestKNNCustomWeighting(t *testing.T) {
	x := mat.NewFromRows([][]float64{{0.1}, {3}, {3.2}})
	y := []int{1, 0, 0}
	rt := newRT()
	// Custom weights: only the nearest neighbor counts.
	m := fitKNN(t, rt, x, y, 3, Params{K: 3, Weights: Custom, WeightFn: func(d []float64) []float64 {
		w := make([]float64, len(d))
		best := 0
		for i := range d {
			if d[i] < d[best] {
				best = i
			}
		}
		w[best] = 1
		return w
	}})
	qa := dsarray.FromMatrix(rt.Main(), mat.NewFromRows([][]float64{{0}}), 1, 1)
	pred, err := m.Predict(qa)
	if err != nil {
		t.Fatal(err)
	}
	labels, _ := dsarray.CollectLabels(pred)
	if labels[0] != 1 {
		t.Fatalf("custom vote = %d, want 1", labels[0])
	}
}

func TestKNNCustomWithoutFnErrors(t *testing.T) {
	rt := newRT()
	xa := dsarray.FromMatrix(rt.Main(), mat.New(4, 2), 2, 2)
	ya := dsarray.FromLabels(rt.Main(), make([]int, 4), 2)
	m := &KNN{Params: Params{Weights: Custom}}
	if err := m.Fit(xa, ya); err == nil {
		t.Fatal("want error: Custom weighting without WeightFn")
	}
}

func TestKNNExactMatchWinsUnderDistanceWeights(t *testing.T) {
	x := mat.NewFromRows([][]float64{{1, 1}, {5, 5}, {5.1, 5}, {5, 5.1}})
	y := []int{1, 0, 0, 0}
	rt := newRT()
	m := fitKNN(t, rt, x, y, 4, Params{K: 4, Weights: Distance})
	qa := dsarray.FromMatrix(rt.Main(), mat.NewFromRows([][]float64{{1, 1}}), 1, 2)
	pred, err := m.Predict(qa)
	if err != nil {
		t.Fatal(err)
	}
	labels, _ := dsarray.CollectLabels(pred)
	if labels[0] != 1 {
		t.Fatalf("exact match must dominate, got %d", labels[0])
	}
}

func TestKNNGraphShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := blobs(rng, 100, 2, 3)
	rt := newRT()
	m := fitKNN(t, rt, x, y, 25, Params{K: 5}) // 4 row blocks
	xq := dsarray.FromMatrix(rt.Main(), x.Slice(0, 50, 0, 2), 25, 2)
	if _, err := m.Predict(xq); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	counts := rt.Graph().CountByName()
	if counts["nn_fit"] != 4 {
		t.Fatalf("nn_fit = %d, want 4 (one per training row block)", counts["nn_fit"])
	}
	if counts["nn_predict"] != 2 {
		t.Fatalf("nn_predict = %d, want 2 (one per query row block)", counts["nn_predict"])
	}
	// Each predict task depends on every fitted block.
	for _, tk := range rt.Graph().Tasks() {
		if tk.Name == "nn_predict" {
			fitDeps := 0
			for _, d := range tk.Deps {
				dep, _ := rt.Graph().Task(d.Task)
				if dep.Name == "nn_fit" {
					fitDeps++
				}
			}
			if fitDeps != 4 {
				t.Fatalf("predict task has %d nn_fit deps, want 4", fitDeps)
			}
		}
	}
}

func TestKNNErrors(t *testing.T) {
	rt := newRT()
	x := dsarray.FromMatrix(rt.Main(), mat.New(10, 2), 5, 2)
	yShort := dsarray.FromLabels(rt.Main(), make([]int, 8), 5)
	m := &KNN{}
	if err := m.Fit(x, yShort); err == nil {
		t.Fatal("want mismatch error")
	}
	if _, err := m.Predict(x); err != ErrNotFitted {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
	yGood := dsarray.FromLabels(rt.Main(), make([]int, 10), 5)
	if err := m.Fit(x, yGood); err != nil {
		t.Fatal(err)
	}
	wide := dsarray.FromMatrix(rt.Main(), mat.New(4, 7), 2, 7)
	if _, err := m.Predict(wide); err == nil {
		t.Fatal("want feature mismatch error")
	}
}

func TestKNNTieBreakDeterministic(t *testing.T) {
	// Two neighbors, one of each class, equal distance: lowest label wins.
	x := mat.NewFromRows([][]float64{{-1}, {1}})
	y := []int{1, 0}
	rt := newRT()
	m := fitKNN(t, rt, x, y, 2, Params{K: 2})
	qa := dsarray.FromMatrix(rt.Main(), mat.NewFromRows([][]float64{{0}}), 1, 1)
	pred, err := m.Predict(qa)
	if err != nil {
		t.Fatal(err)
	}
	labels, _ := dsarray.CollectLabels(pred)
	if labels[0] != 0 {
		t.Fatalf("tie break = %d, want 0", labels[0])
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, y := blobs(rng, 500, 8, 2)
	q, _ := blobs(rng, 100, 8, 2)
	for i := 0; i < b.N; i++ {
		rt := newRT()
		xa := dsarray.FromMatrix(rt.Main(), x, 100, 8)
		ya := dsarray.FromLabels(rt.Main(), y, 100)
		m := &KNN{Params: Params{K: 5}}
		if err := m.Fit(xa, ya); err != nil {
			b.Fatal(err)
		}
		qa := dsarray.FromMatrix(rt.Main(), q, 100, 8)
		pred, err := m.Predict(qa)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pred.Collect(); err != nil {
			b.Fatal(err)
		}
	}
}
