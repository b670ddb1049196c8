// Package taskml's root benchmark suite regenerates every table and figure
// of the paper's evaluation (§IV). Each benchmark runs the corresponding
// experiment end to end — real task execution, virtual-cluster replay for
// the time axes — and reports the headline quantities as benchmark metrics.
// EXPERIMENTS.md records the paper-vs-measured comparison; run with
//
//	go test -bench=. -benchmem
//
// Shared fixtures (dataset generation, the PCA reduction) are built once
// and reused across benchmarks; the first benchmark that needs them pays
// the setup outside its timer.
package taskml

import (
	"fmt"
	"sync"
	"testing"

	"taskml/internal/cluster"
	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/eddl"
	"taskml/internal/forest"
	"taskml/internal/knn"
	"taskml/internal/mat"
	"taskml/internal/svm"
	"taskml/internal/trace"
)

// ---------------------------------------------------------------------------
// Shared fixtures

var quality struct {
	once sync.Once
	err  error
	ds   *core.Dataset
	rx   *mat.Dense // PCA-reduced features, shared across the Table I runs
	k    int
}

// qualityFixture builds the Table I dataset and its PCA reduction once.
func qualityFixture(b *testing.B) {
	quality.once.Do(func() {
		ds, err := core.BuildDataset(core.TableIData(1, 1))
		if err != nil {
			quality.err = err
			return
		}
		rt := compss.New(compss.Config{})
		rx, k, err := core.ReduceWithPCA(rt, ds, core.TableIPipeline(1))
		if err != nil {
			quality.err = err
			return
		}
		quality.ds, quality.rx, quality.k = ds, rx, k
	})
	if quality.err != nil {
		b.Fatal(quality.err)
	}
}

var scaling struct {
	once sync.Once
	err  error
	rx   *mat.Dense
	y    []int
}

// scalingFixture builds the (larger, easier) dataset used by the Figure 11
// and 12 benchmarks: the quality of the model is irrelevant there, only the
// workflow structure and task costs matter.
func scalingFixture(b *testing.B) {
	scaling.once.Do(func() {
		ds, err := core.BuildDataset(core.DataConfig{
			NNormal: 500, NAF: 75, Seed: 2,
			MinDurSec: 9, MaxDurSec: 15,
			NoiseStd: 0.05, AFSubtlety: 0.05, // easy data: structure, not quality
			Feature: core.FeatureConfig{PadSec: 15, Window: 256, MaxFreqHz: 40, TimePool: 2},
		})
		if err != nil {
			scaling.err = err
			return
		}
		rt := compss.New(compss.Config{})
		rx, _, err := core.ReduceWithPCA(rt, ds, core.PipelineConfig{BlockRows: 100, BlockCols: 100})
		if err != nil {
			scaling.err = err
			return
		}
		scaling.rx, scaling.y = rx, ds.Y
	})
	if scaling.err != nil {
		b.Fatal(scaling.err)
	}
}

func runTable1(b *testing.B, model core.Model) *core.CVReport {
	b.Helper()
	qualityFixture(b)
	var rep *core.CVReport
	for i := 0; i < b.N; i++ {
		rt := compss.New(compss.Config{})
		var err error
		rep, err = core.RunCVReduced(model, rt, quality.rx, quality.k, quality.ds.Y, core.TableIPipeline(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.Accuracy(), "acc%")
	b.ReportMetric(100*rep.Confusion.Recall(core.LabelAF), "AFrecall%")
	b.Logf("\n%s accuracy %.1f%%\n%s", model, 100*rep.Accuracy(), rep.RenderConfusion())
	return rep
}

// ---------------------------------------------------------------------------
// Table I — model quality (accuracy + confusion matrices)

// BenchmarkTable1aCSVMAccuracy regenerates Table Ia: the CascadeSVM's
// moderate accuracy (paper: 74.9%) with roughly symmetric errors.
func BenchmarkTable1aCSVMAccuracy(b *testing.B) {
	rep := runTable1(b, core.ModelCSVM)
	if a := rep.Accuracy(); a < 0.60 || a > 0.88 {
		b.Fatalf("CSVM accuracy %.3f outside the Table Ia band (paper: 0.749)", a)
	}
}

// BenchmarkTable1bKNNAccuracy regenerates Table Ib: KNN collapses toward
// predicting (almost) everything AF (paper: 52% accuracy, 0.490 of all
// samples are Normal-predicted-AF).
func BenchmarkTable1bKNNAccuracy(b *testing.B) {
	rep := runTable1(b, core.ModelKNN)
	if a := rep.Accuracy(); a > 0.65 {
		b.Fatalf("KNN accuracy %.3f too high for the Table Ib collapse (paper: 0.52)", a)
	}
	if r := rep.Confusion.Recall(core.LabelAF); r < 0.9 {
		b.Fatalf("KNN AF recall %.3f; the collapse predicts nearly all AF as AF", r)
	}
}

// BenchmarkTable1cRFAccuracy regenerates Table Ic: RandomForest is the best
// classical model (paper: 86.8%).
func BenchmarkTable1cRFAccuracy(b *testing.B) {
	rep := runTable1(b, core.ModelRF)
	if a := rep.Accuracy(); a < 0.80 {
		b.Fatalf("RF accuracy %.3f below the Table Ic band (paper: 0.868)", a)
	}
}

// BenchmarkTable1dCNNAccuracy regenerates Table Id: the CNN is the most
// accurate model overall (paper: 90%).
func BenchmarkTable1dCNNAccuracy(b *testing.B) {
	rep := runTable1(b, core.ModelCNN)
	if a := rep.Accuracy(); a < 0.82 {
		b.Fatalf("CNN accuracy %.3f below the Table Id band (paper: 0.90)", a)
	}
}

// BenchmarkPCAVarianceRetention checks the §III-B.4 claim: the PCA keeps
// ≥95% of the variance while reducing the dimensionality drastically (the
// paper: 18810 → 3269, ≈17% of the dimensions).
func BenchmarkPCAVarianceRetention(b *testing.B) {
	qualityFixture(b)
	for i := 0; i < b.N; i++ {
		_ = quality.k
	}
	ratio := float64(quality.k) / float64(quality.ds.X.Cols)
	b.ReportMetric(float64(quality.k), "components")
	b.ReportMetric(100*ratio, "dims%")
	if ratio > 0.5 {
		b.Fatalf("PCA kept %.0f%% of dimensions; the paper's reduction is drastic", 100*ratio)
	}
	b.Logf("PCA: %d → %d features (%.1f%%)", quality.ds.X.Cols, quality.k, 100*ratio)
}

// ---------------------------------------------------------------------------
// Figure 11 — classical model scalability on MareNostrum4

// Paper-scale emulation factors; the derivation is in EXPERIMENTS.md and
// cmd/scaling uses the same values.
const (
	costScale          = 1e4
	bytesScale         = 1e3
	cnnComputeScale    = 900
	cnnPayloadScale    = 750
	cnnDistributeScale = 12
)

func sweep(b *testing.B, rt *compss.Runtime, nodes []int) []float64 {
	b.Helper()
	g := rt.Graph().Scaled(costScale, bytesScale)
	times := make([]float64, len(nodes))
	for i, n := range nodes {
		s, err := cluster.ScheduleGraph(g, cluster.MareNostrum4(n))
		if err != nil {
			b.Fatal(err)
		}
		times[i] = s.Makespan
	}
	return times
}

// BenchmarkFigure11aCSVMScaling regenerates Figure 11a: CSVM training time
// falls with core count and then saturates (the paper sees gains up to 192
// cores; the cascade's reduction phase is the ceiling).
func BenchmarkFigure11aCSVMScaling(b *testing.B) {
	scalingFixture(b)
	var rt *compss.Runtime
	for i := 0; i < b.N; i++ {
		var err error
		rt, err = core.TrainGraph(core.ModelCSVM, scaling.rx, scaling.y, core.PipelineConfig{
			Seed: 2, BlockRows: 50, BlockCols: scaling.rx.Cols,
			CSVM: svm.CascadeParams{CoresPerTask: 8, Iterations: 3},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	nodes := []int{1, 2, 4, 8}
	times := sweep(b, rt, nodes)
	for i, n := range nodes {
		b.ReportMetric(times[i], fmt.Sprintf("s@%dcores", n*48))
	}
	b.Logf("Figure 11a series (cores → seconds): %v cores → %v", nodes, times)
	if times[1] >= times[0] {
		b.Fatalf("CSVM did not speed up from 48 to 96 cores: %v", times)
	}
	// Saturation: going 4→8 nodes buys much less than 1→2.
	gainLow := times[0] / times[1]
	gainHigh := times[2] / times[3]
	if gainHigh >= gainLow {
		b.Fatalf("no saturation: low-end gain %.2f, high-end gain %.2f", gainLow, gainHigh)
	}
}

// BenchmarkFigure11bKNNScaling regenerates Figure 11b: the scaler + KNN fit
// improves with cores but is bounded by the number of row blocks.
func BenchmarkFigure11bKNNScaling(b *testing.B) {
	scalingFixture(b)
	var rt *compss.Runtime
	for i := 0; i < b.N; i++ {
		var err error
		rt, err = core.TrainGraph(core.ModelKNN, scaling.rx, scaling.y, core.PipelineConfig{
			Seed: 2, BlockRows: 25, BlockCols: (scaling.rx.Cols + 1) / 2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	nodes := []int{1, 2, 4, 8}
	times := sweep(b, rt, nodes)
	for i, n := range nodes {
		b.ReportMetric(times[i], fmt.Sprintf("s@%dcores", n*48))
	}
	b.Logf("Figure 11b series (nodes %v): %v", nodes, times)
	if times[len(times)-1] > times[0] {
		b.Fatalf("KNN got slower with more cores: %v", times)
	}
}

// BenchmarkFigure11cRFScaling regenerates Figure 11c: RandomForest scales
// poorly — few tasks, imbalance — and 3 nodes can be no better (or worse)
// than 2 because of the extra transfers the paper describes.
func BenchmarkFigure11cRFScaling(b *testing.B) {
	scalingFixture(b)
	var rt *compss.Runtime
	for i := 0; i < b.N; i++ {
		var err error
		rt, err = core.TrainGraph(core.ModelRF, scaling.rx, scaling.y, core.PipelineConfig{
			Seed: 2, BlockRows: 100, BlockCols: scaling.rx.Cols,
			RF: forest.Params{NEstimators: 40, DistrDepth: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	nodes := []int{1, 2, 3}
	times := sweep(b, rt, nodes)
	for i, n := range nodes {
		b.ReportMetric(times[i], fmt.Sprintf("s@%dnodes", n))
	}
	b.Logf("Figure 11c series (nodes %v): %v", nodes, times)
	// Poor scalability: the 1→3-node speedup stays far from 3×.
	if sp := times[0] / times[2]; sp > 2.2 {
		b.Fatalf("RF speedup 1→3 nodes is %.2f; the paper's point is that it is poor", sp)
	}
}

// ---------------------------------------------------------------------------
// Figure 12 — EDDL CNN configurations on CTE-Power

// BenchmarkFigure12CNNVariants regenerates Figure 12: 1 GPU/task beats 4
// GPUs/task (paper: 1.2×), nesting beats both (paper: 2.24×, and < 5×
// because of the shared dataset-distribution stage).
func BenchmarkFigure12CNNVariants(b *testing.B) {
	scalingFixture(b)
	type variant struct {
		name  string
		gpus  int
		model core.Model
		nodes int
	}
	variants := []variant{
		{"4gpu", 4, core.ModelCNN, 4},
		{"1gpu", 1, core.ModelCNN, 1},
		{"nested", 1, core.ModelCNNNested, 5},
	}
	times := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, v := range variants {
			rt, err := core.TrainGraph(v.model, scaling.rx, scaling.y, core.PipelineConfig{
				Seed: 2,
				CNNTrain: eddl.TrainConfig{GPUsPerTask: v.gpus, Epochs: 7, Workers: 4, Folds: 5,
					ComputeScale: cnnComputeScale, PayloadScale: cnnPayloadScale,
					DistributeScale: cnnDistributeScale},
			})
			if err != nil {
				b.Fatal(err)
			}
			s, err := cluster.ScheduleGraph(rt.Graph(), cluster.CTEPower(v.nodes))
			if err != nil {
				b.Fatal(err)
			}
			times[v.name] = s.Makespan
		}
	}
	for name, t := range times {
		b.ReportMetric(t, "s_"+name)
	}
	oneVsFour := times["4gpu"] / times["1gpu"]
	nestGain := times["4gpu"] / times["nested"]
	b.ReportMetric(oneVsFour, "x_1gpu_vs_4gpu")
	b.ReportMetric(nestGain, "x_nested_vs_4gpu")
	b.Logf("Figure 12: 4gpu %.2fs, 1gpu %.2fs (%.2fx), nested %.2fs (%.2fx)",
		times["4gpu"], times["1gpu"], oneVsFour, times["nested"], nestGain)
	if oneVsFour < 1.05 {
		b.Fatalf("1 GPU/task should beat 4 GPUs/task (paper: 1.2x), got %.2fx", oneVsFour)
	}
	if nestGain <= oneVsFour {
		b.Fatalf("nesting (%.2fx) should beat the 1-GPU baseline (%.2fx)", nestGain, oneVsFour)
	}
	if g := times["1gpu"] / times["nested"]; g <= 2 {
		b.Fatalf("nesting gains %.2fx over the 1-GPU baseline, want > 2x (paper: 2.24x)", g)
	}
	if times["1gpu"]/times["nested"] > 6 {
		b.Fatalf("nested speedup implausibly high")
	}
}

// ---------------------------------------------------------------------------
// Figures 4/6/8/9/10 — workflow graph shapes

// BenchmarkFigure4GraphCSVM captures the CSVM workflow and checks the
// cascade structure of Figure 4: one svc_fit per row block per iteration
// and a pairwise merge reduction.
func BenchmarkFigure4GraphCSVM(b *testing.B) {
	scalingFixture(b)
	var rt *compss.Runtime
	for i := 0; i < b.N; i++ {
		var err error
		rt, err = core.TrainGraph(core.ModelCSVM, scaling.rx, scaling.y, core.PipelineConfig{
			Seed: 2, BlockRows: 72, BlockCols: scaling.rx.Cols,
			CSVM: svm.CascadeParams{Iterations: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	counts := rt.Graph().CountByName()
	blocks := (scaling.rx.Rows + 71) / 72
	if counts["svc_fit"] != 2*blocks {
		b.Fatalf("svc_fit = %d, want %d", counts["svc_fit"], 2*blocks)
	}
	if counts["svc_merge"] != 2*(blocks-1) {
		b.Fatalf("svc_merge = %d, want %d", counts["svc_merge"], 2*(blocks-1))
	}
	b.ReportMetric(float64(rt.Graph().Len()), "tasks")
}

// BenchmarkFigure6GraphKNN captures the scaler+KNN workflow of Figure 6.
func BenchmarkFigure6GraphKNN(b *testing.B) {
	scalingFixture(b)
	var rt *compss.Runtime
	for i := 0; i < b.N; i++ {
		var err error
		rt, err = core.TrainGraph(core.ModelKNN, scaling.rx, scaling.y, core.PipelineConfig{
			Seed: 2, BlockRows: 72, BlockCols: scaling.rx.Cols,
			KNN: knn.Params{K: 5},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	counts := rt.Graph().CountByName()
	blocks := (scaling.rx.Rows + 71) / 72
	if counts["nn_fit"] != blocks {
		b.Fatalf("nn_fit = %d, want one per row block (%d)", counts["nn_fit"], blocks)
	}
	b.ReportMetric(float64(rt.Graph().Len()), "tasks")
}

// BenchmarkFigure8GraphRF captures the RandomForest workflow of Figure 8
// (40 estimators) and checks that the task count is independent of the
// blocking, as the paper stresses.
func BenchmarkFigure8GraphRF(b *testing.B) {
	scalingFixture(b)
	var a, c *compss.Runtime
	for i := 0; i < b.N; i++ {
		var err error
		a, err = core.TrainGraph(core.ModelRF, scaling.rx, scaling.y, core.PipelineConfig{
			Seed: 2, BlockRows: 72, BlockCols: scaling.rx.Cols,
			RF: forest.Params{NEstimators: 40, DistrDepth: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		c, err = core.TrainGraph(core.ModelRF, scaling.rx, scaling.y, core.PipelineConfig{
			Seed: 2, BlockRows: 36, BlockCols: scaling.rx.Cols,
			RF: forest.Params{NEstimators: 40, DistrDepth: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	ca, cc := a.Graph().CountByName(), c.Graph().CountByName()
	for _, name := range []string{"rf_split", "rf_subtree", "rf_join", "rf_bootstrap"} {
		if ca[name] != cc[name] {
			b.Fatalf("%s count depends on blocking: %d vs %d", name, ca[name], cc[name])
		}
	}
	if ca["rf_bootstrap"] != 40 {
		b.Fatalf("rf_bootstrap = %d, want 40 (one per estimator)", ca["rf_bootstrap"])
	}
	b.ReportMetric(float64(a.Graph().Len()), "tasks")
}

// BenchmarkFigure9And10GraphCNN captures both CNN workflows and checks the
// structural difference the paper draws: the plain version has no nested
// tasks and serialises through main-program synchronisations; the nested
// version wraps each fold in a task.
func BenchmarkFigure9And10GraphCNN(b *testing.B) {
	scalingFixture(b)
	var plain, nested *compss.Runtime
	for i := 0; i < b.N; i++ {
		var err error
		plain, err = core.TrainGraph(core.ModelCNN, scaling.rx, scaling.y, core.PipelineConfig{
			Seed: 2, CNNTrain: eddl.TrainConfig{Epochs: 7, Workers: 4, Folds: 5},
		})
		if err != nil {
			b.Fatal(err)
		}
		nested, err = core.TrainGraph(core.ModelCNNNested, scaling.rx, scaling.y, core.PipelineConfig{
			Seed: 2, CNNTrain: eddl.TrainConfig{Epochs: 7, Workers: 4, Folds: 5},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, tk := range plain.Graph().Tasks() {
		if tk.Parent != -1 {
			b.Fatal("plain CNN graph must have no nesting")
		}
	}
	cn := nested.Graph().CountByName()
	if cn["fold_train"] != 5 {
		b.Fatalf("nested CNN graph has %d fold tasks, want 5", cn["fold_train"])
	}
	if cp := plain.Graph().CountByName(); cp["cnn_train"] != 5*7*4 || cn["cnn_train"] != 5*7*4 {
		b.Fatalf("cnn_train counts: plain %d, nested %d, want 140", cp["cnn_train"], cn["cnn_train"])
	}
	b.ReportMetric(float64(plain.Graph().Len()), "plain_tasks")
	b.ReportMetric(float64(nested.Graph().Len()), "nested_tasks")
}

// ---------------------------------------------------------------------------
// Ablations of the design choices DESIGN.md calls out

// BenchmarkAblationBlockSizeCSVM varies the ds-array blocking: smaller row
// blocks give more first-layer parallelism but a deeper reduction.
func BenchmarkAblationBlockSizeCSVM(b *testing.B) {
	scalingFixture(b)
	for _, brows := range []int{25, 50, 100, 200} {
		brows := brows
		b.Run(fmt.Sprintf("rows%d", brows), func(b *testing.B) {
			var rt *compss.Runtime
			for i := 0; i < b.N; i++ {
				var err error
				rt, err = core.TrainGraph(core.ModelCSVM, scaling.rx, scaling.y, core.PipelineConfig{
					Seed: 2, BlockRows: brows, BlockCols: scaling.rx.Cols,
					CSVM: svm.CascadeParams{Iterations: 2},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			s, err := cluster.ScheduleGraph(rt.Graph().Scaled(costScale, bytesScale), cluster.MareNostrum4(2))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(s.Makespan, "s@96cores")
			b.ReportMetric(float64(rt.Graph().Len()), "tasks")
		})
	}
}

// BenchmarkAblationCascadeArity varies the cascade merge fan-in: wider
// merges shorten the reduction tree but make each merge heavier.
func BenchmarkAblationCascadeArity(b *testing.B) {
	scalingFixture(b)
	for _, arity := range []int{2, 4, 8} {
		arity := arity
		b.Run(fmt.Sprintf("arity%d", arity), func(b *testing.B) {
			var rt *compss.Runtime
			for i := 0; i < b.N; i++ {
				var err error
				rt, err = core.TrainGraph(core.ModelCSVM, scaling.rx, scaling.y, core.PipelineConfig{
					Seed: 2, BlockRows: 50, BlockCols: scaling.rx.Cols,
					CSVM: svm.CascadeParams{Iterations: 2, Arity: arity},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			s, err := cluster.ScheduleGraph(rt.Graph().Scaled(costScale, bytesScale), cluster.MareNostrum4(2))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(s.Makespan, "s@96cores")
			b.ReportMetric(rt.Graph().CriticalPath(), "cp_s")
		})
	}
}

// BenchmarkAblationDistrDepth varies the RF distr_depth: deeper distributed
// splitting creates more tasks (more parallelism, more overhead).
func BenchmarkAblationDistrDepth(b *testing.B) {
	scalingFixture(b)
	for _, dd := range []int{1, 2, 3, 4} {
		dd := dd
		b.Run(fmt.Sprintf("depth%d", dd), func(b *testing.B) {
			var rt *compss.Runtime
			for i := 0; i < b.N; i++ {
				var err error
				rt, err = core.TrainGraph(core.ModelRF, scaling.rx, scaling.y, core.PipelineConfig{
					Seed: 2, BlockRows: 100, BlockCols: scaling.rx.Cols,
					RF: forest.Params{NEstimators: 16, DistrDepth: dd},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			s, err := cluster.ScheduleGraph(rt.Graph().Scaled(costScale, bytesScale), cluster.MareNostrum4(2))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(s.Makespan, "s@96cores")
			b.ReportMetric(float64(rt.Graph().Len()), "tasks")
		})
	}
}

// BenchmarkAblationAugmentationKNN contrasts KNN quality with and without
// the shuffling augmentation: the augmentation balances the classes (and
// triggers the Table Ib density collapse); without it the imbalanced prior
// dominates instead.
func BenchmarkAblationAugmentationKNN(b *testing.B) {
	var accWith, accWithout float64
	for i := 0; i < b.N; i++ {
		for _, skip := range []bool{false, true} {
			// A lighter feature configuration than Table I's: the ablation
			// contrasts the two KNN regimes, which shows at ~300 features
			// without paying the 1020-dim eigendecomposition twice.
			cfg := core.TableIData(1, 3)
			cfg.Feature = core.FeatureConfig{PadSec: 15, Window: 256, MaxFreqHz: 40, TimePool: 2}
			cfg.SkipBalance = skip
			ds, err := core.BuildDataset(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := core.RunCV(core.ModelKNN, ds, core.TableIPipeline(3))
			if err != nil {
				b.Fatal(err)
			}
			if skip {
				accWithout = rep.Accuracy()
			} else {
				accWith = rep.Accuracy()
			}
		}
	}
	b.ReportMetric(100*accWith, "acc%_balanced")
	b.ReportMetric(100*accWithout, "acc%_imbalanced")
	b.Logf("KNN accuracy: balanced %.3f vs imbalanced %.3f", accWith, accWithout)
}

// ---------------------------------------------------------------------------
// Observer-layer overhead (the PR's contract: a runtime with no observers
// attached must pay nothing for the event layer on the submit path)

// BenchmarkSubmitNoObserver measures the per-task submit+get cost of a bare
// runtime — the baseline the zero-observer fast path must hold.
func BenchmarkSubmitNoObserver(b *testing.B) {
	rt := compss.New(compss.Config{Workers: 4})
	noop := func(_ *compss.TaskCtx, _ []any) (any, error) { return nil, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := rt.Submit(compss.Opts{Name: "noop"}, noop)
		if _, err := rt.Get(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitTraced is the same workload with a trace.Collector
// attached: the delta against BenchmarkSubmitNoObserver is the full cost
// of recording every lifecycle event.
func BenchmarkSubmitTraced(b *testing.B) {
	rt := compss.New(compss.Config{Workers: 4,
		Observers: []compss.Observer{trace.NewCollector()}})
	noop := func(_ *compss.TaskCtx, _ []any) (any, error) { return nil, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := rt.Submit(compss.Opts{Name: "noop"}, noop)
		if _, err := rt.Get(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitParallel measures the submit fast path the work-stealing
// executor was built for: submissions from *inside* task bodies, which push
// onto the submitting worker's own deque without touching any runtime-global
// lock. Four driver bodies submit concurrently, so the per-op cost also
// reflects cross-worker contention on the dependency and completion paths
// (BenchmarkSubmitNoObserver, by contrast, submits externally from the main
// goroutine — the round-robin placement path).
func BenchmarkSubmitParallel(b *testing.B) {
	const drivers = 4
	rt := compss.New(compss.Config{Workers: drivers})
	noop := func(_ *compss.TaskCtx, _ []any) (any, error) { return nil, nil }
	b.ReportAllocs()
	b.ResetTimer()
	futs := make([]*compss.Future, drivers)
	for d := range futs {
		n := b.N / drivers
		if d < b.N%drivers {
			n++
		}
		futs[d] = rt.Submit(compss.Opts{Name: "driver"},
			func(tc *compss.TaskCtx, _ []any) (any, error) {
				for i := 0; i < n; i++ {
					f := tc.Submit(compss.Opts{Name: "noop"}, noop)
					if _, err := tc.Get(f); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
	}
	for _, f := range futs {
		if _, err := rt.Get(f); err != nil {
			b.Fatal(err)
		}
	}
}
