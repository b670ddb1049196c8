package eddl

import (
	"math"
	"math/rand"
	"testing"

	"taskml/internal/compss"
	"taskml/internal/mat"
)

// tinyArch keeps unit tests fast.
func tinyArch() Arch {
	return Arch{InputLen: 16, Filters: 4, Kernel: 3, Stride: 2, Hidden: 8, Classes: 2}
}

// waves builds a frequency-discrimination dataset: class 0 is a slow wave,
// class 1 a fast wave, with noise — a miniature of the ECG band structure.
func waves(rng *rand.Rand, n, length int) (*mat.Dense, []int) {
	x := mat.New(n, length)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		freq := 1.0
		if c == 1 {
			freq = 3.0
		}
		phase := rng.Float64() * 2 * math.Pi
		for j := 0; j < length; j++ {
			x.Set(i, j, math.Sin(2*math.Pi*freq*float64(j)/float64(length)+phase)+0.1*rng.NormFloat64())
		}
	}
	return x, y
}

func TestConv1DShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv1D(2, 3, 10, 3, 1, rng)
	if c.OutLen() != 8 || c.OutCols() != 24 {
		t.Fatalf("OutLen=%d OutCols=%d", c.OutLen(), c.OutCols())
	}
	cs := NewConv1D(1, 4, 16, 3, 2, rng)
	if cs.OutLen() != 7 {
		t.Fatalf("strided OutLen=%d, want 7", cs.OutLen())
	}
	x := mat.New(5, 20) // 2 channels × 10
	out := c.Forward(x)
	if out.Rows != 5 || out.Cols != 24 {
		t.Fatalf("forward shape %dx%d", out.Rows, out.Cols)
	}
}

func TestConv1DKernelTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewConv1D(1, 1, 4, 8, 1, rand.New(rand.NewSource(1)))
}

func TestConv1DKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv1D(1, 1, 4, 2, 1, rng)
	// Overwrite weights with known values: w = [1, 2], b = 0.5.
	c.w.W.Data[0], c.w.W.Data[1] = 1, 2
	c.b.W.Data[0] = 0.5
	x := mat.NewFromData(1, 4, []float64{1, 2, 3, 4})
	out := c.Forward(x)
	want := []float64{1*1 + 2*2 + 0.5, 2*1 + 3*2 + 0.5, 3*1 + 4*2 + 0.5}
	for i, w := range want {
		if math.Abs(out.At(0, i)-w) > 1e-12 {
			t.Fatalf("out = %v, want %v", out.Row(0), want)
		}
	}
}

// Numerical gradient check across all parameters of the full network —
// the decisive correctness test for the backward pass.
func TestGradientCheck(t *testing.T) {
	arch := tinyArch()
	net := arch.Build(3)
	rng := rand.New(rand.NewSource(4))
	x := mat.New(3, arch.InputLen)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := []int{0, 1, 0}

	lossOf := func() float64 {
		logits := net.Forward(x)
		l, _ := softmaxCE(logits, y)
		return l
	}

	// Analytic gradients.
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = 0
			}
		}
	}
	logits := net.Forward(x)
	_, grad := softmaxCE(logits, y)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		grad = net.Layers[i].Backward(grad)
	}

	const eps = 1e-6
	checked := 0
	for li, l := range net.Layers {
		for pi, p := range l.Params() {
			step := len(p.W.Data)/5 + 1
			for i := 0; i < len(p.W.Data); i += step {
				orig := p.W.Data[i]
				p.W.Data[i] = orig + eps
				lp := lossOf()
				p.W.Data[i] = orig - eps
				lm := lossOf()
				p.W.Data[i] = orig
				numeric := (lp - lm) / (2 * eps)
				analytic := p.Grad.Data[i]
				if math.Abs(numeric-analytic) > 1e-4*(math.Abs(numeric)+math.Abs(analytic)+1e-3) {
					t.Fatalf("layer %d param %d index %d: numeric %v vs analytic %v", li, pi, i, numeric, analytic)
				}
				checked++
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

func TestTrainingLearnsWaves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := waves(rng, 200, 16)
	net := tinyArch().Build(5)
	var lastLoss float64
	for e := 0; e < 15; e++ {
		loss, err := net.TrainEpoch(x, y, 0.05, 16, rng)
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = loss
	}
	if lastLoss > 0.3 {
		t.Fatalf("loss %v after training", lastLoss)
	}
	pred := net.Predict(x)
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(y)); acc < 0.9 {
		t.Fatalf("training accuracy %v", acc)
	}
}

func TestTrainEpochErrors(t *testing.T) {
	net := tinyArch().Build(1)
	rng := rand.New(rand.NewSource(6))
	if _, err := net.TrainEpoch(mat.New(2, 16), []int{0}, 0.1, 8, rng); err == nil {
		t.Fatal("want label mismatch error")
	}
	if _, err := net.TrainEpoch(mat.New(0, 16), nil, 0.1, 8, rng); err == nil {
		t.Fatal("want empty set error")
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	a := tinyArch().Build(7)
	b := tinyArch().Build(8)
	rng := rand.New(rand.NewSource(9))
	x := mat.New(4, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	if err := b.SetWeights(a.Weights()); err != nil {
		t.Fatal(err)
	}
	pa := a.Forward(x)
	pb := b.Forward(x)
	if !mat.Equal(pa, pb, 1e-12) {
		t.Fatal("SetWeights(Weights()) did not replicate the network")
	}
	// Weights must be copies: mutating them must not affect the source.
	ws := a.Weights()
	ws[0].Data[0] += 100
	pa2 := a.Forward(x)
	if !mat.Equal(pa, pa2, 0) {
		t.Fatal("Weights() aliases network parameters")
	}
}

func TestSetWeightsErrors(t *testing.T) {
	net := tinyArch().Build(10)
	ws := net.Weights()
	if err := net.SetWeights(ws[:len(ws)-1]); err == nil {
		t.Fatal("want arity error")
	}
	bad := net.Weights()
	bad[0] = mat.New(1, 1)
	if err := net.SetWeights(bad); err == nil {
		t.Fatal("want shape error")
	}
	if err := net.SetWeights(append(net.Weights(), mat.New(1, 1))); err == nil {
		t.Fatal("want too-many error")
	}
}

func TestMergeWeightsAverages(t *testing.T) {
	a := [][]*mat.Dense{
		{mat.NewFromData(1, 2, []float64{2, 4})},
		{mat.NewFromData(1, 2, []float64{4, 8})},
	}
	m, err := MergeWeights(a)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].At(0, 0) != 3 || m[0].At(0, 1) != 6 {
		t.Fatalf("merged = %v", m[0])
	}
	if _, err := MergeWeights(nil); err == nil {
		t.Fatal("want empty error")
	}
	bad := [][]*mat.Dense{{mat.New(1, 2)}, {mat.New(2, 2)}}
	if _, err := MergeWeights(bad); err == nil {
		t.Fatal("want shape mismatch error")
	}
}

func TestTaskSecondsGPUModel(t *testing.T) {
	t1 := taskSeconds(1000, 1e6, 1)
	t4 := taskSeconds(1000, 1e6, 4)
	ratio := t4 / t1
	if ratio < 1.15 || ratio > 1.25 {
		t.Fatalf("4-GPU/1-GPU ratio %v, want ≈ 1.2 (the paper's observation)", ratio)
	}
}

func TestFwdFlopsPositiveAndAdditive(t *testing.T) {
	net := tinyArch().Build(11)
	total := net.FwdFlopsPerSample()
	if total <= 0 {
		t.Fatal("FwdFlopsPerSample must be positive")
	}
	var sum float64
	for _, l := range net.Layers {
		sum += l.FwdFlops()
	}
	if math.Abs(total-sum) > 1e-9 {
		t.Fatal("FwdFlopsPerSample must sum layer flops")
	}
	if net.WeightBytes() <= 0 {
		t.Fatal("WeightBytes must be positive")
	}
}

func TestTrainKFoldPlainAndNestedAgreeOnQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y := waves(rng, 120, 16)
	arch := tinyArch()
	cfg := TrainConfig{Folds: 3, Epochs: 12, Workers: 2, LR: 0.1, Seed: 12}

	rtPlain := compss.New(compss.Config{Workers: 4})
	plain, err := TrainKFold(rtPlain, x, y, arch, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	rtNested := compss.New(compss.Config{Workers: 4})
	nested, err := TrainKFold(rtNested, x, y, arch, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Accuracy() < 0.75 {
		t.Fatalf("plain accuracy %v", plain.Accuracy())
	}
	if nested.Accuracy() < 0.75 {
		t.Fatalf("nested accuracy %v", nested.Accuracy())
	}
	if len(plain.FoldConfusions) != 3 || len(nested.FoldAccuracies) != 3 {
		t.Fatal("fold bookkeeping wrong")
	}
	// Same folds, same seeds, same task bodies: identical pooled matrices.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if plain.Confusion.Counts[i][j] != nested.Confusion.Counts[i][j] {
				t.Fatalf("plain and nested confusions differ: %v vs %v",
					plain.Confusion.Counts, nested.Confusion.Counts)
			}
		}
	}
}

func TestTrainKFoldGraphShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y := waves(rng, 60, 16)
	arch := tinyArch()
	cfg := TrainConfig{Folds: 2, Epochs: 2, Workers: 2, Seed: 13}

	rtPlain := compss.New(compss.Config{Workers: 4})
	if _, err := TrainKFold(rtPlain, x, y, arch, cfg, false); err != nil {
		t.Fatal(err)
	}
	gp := rtPlain.Graph()
	for _, tk := range gp.Tasks() {
		if tk.Parent != -1 {
			t.Fatal("plain version must not nest tasks")
		}
	}
	cp := gp.CountByName()
	// Per fold: 1 partition + 1 init + 2 epochs × (2 train + 1 merge) + 1 eval.
	if cp["cnn_train"] != 2*2*2 || cp["cnn_merge"] != 2*2 || cp["fold_train"] != 0 {
		t.Fatalf("plain graph: %v", cp)
	}

	rtNested := compss.New(compss.Config{Workers: 4})
	if _, err := TrainKFold(rtNested, x, y, arch, cfg, true); err != nil {
		t.Fatal(err)
	}
	gn := rtNested.Graph()
	cn := gn.CountByName()
	if cn["fold_train"] != 2 {
		t.Fatalf("nested graph: %v", cn)
	}
	// All cnn_* tasks must live inside a fold task.
	foldIDs := map[int]bool{}
	for _, tk := range gn.Tasks() {
		if tk.Name == "fold_train" {
			foldIDs[tk.ID] = true
		}
	}
	for _, tk := range gn.Tasks() {
		if tk.Name == "cnn_train" && !foldIDs[tk.Parent] {
			t.Fatalf("cnn_train task %d not nested in a fold (parent %d)", tk.ID, tk.Parent)
		}
	}
	if err := gn.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainKFoldInputValidation(t *testing.T) {
	rt := compss.New(compss.Config{Workers: 2})
	x := mat.New(10, 16)
	if _, err := TrainKFold(rt, x, make([]int, 8), tinyArch(), TrainConfig{Folds: 2}, false); err == nil {
		t.Fatal("want label mismatch error")
	}
	badArch := tinyArch()
	badArch.InputLen = 99
	if _, err := TrainKFold(rt, x, make([]int, 10), badArch, TrainConfig{Folds: 2}, false); err == nil {
		t.Fatal("want input length error")
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	x, y := waves(rng, 128, 16)
	net := tinyArch().Build(14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainEpoch(x, y, 0.05, 32, rng); err != nil {
			b.Fatal(err)
		}
	}
}
