package core

import (
	"testing"

	"taskml/internal/cluster"
	"taskml/internal/compss"
	"taskml/internal/eddl"
)

// fastCfg keeps integration tests quick.
func fastCfg(seed int64) PipelineConfig {
	return PipelineConfig{
		Seed:      seed,
		Folds:     3,
		BlockRows: 24,
		BlockCols: 32,
		CNNTrain:  eddl.TrainConfig{Folds: 3, Epochs: 2, Workers: 2},
	}
}

func TestRunCVAllModelsComplete(t *testing.T) {
	ds, err := BuildDataset(smallData(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Models {
		rep, err := RunCV(m, ds, fastCfg(11))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if rep.Confusion.Total() != len(ds.Y) {
			t.Fatalf("%s: confusion total %d, want %d", m, rep.Confusion.Total(), len(ds.Y))
		}
		if a := rep.Accuracy(); a < 0 || a > 1 {
			t.Fatalf("%s: accuracy %v", m, a)
		}
		if rep.PCAK <= 0 || rep.PCAK > ds.X.Cols {
			t.Fatalf("%s: PCA k = %d", m, rep.PCAK)
		}
		wantFolds := 3
		if len(rep.FoldAccuracies) != wantFolds {
			t.Fatalf("%s: %d fold accuracies", m, len(rep.FoldAccuracies))
		}
		if err := rep.Runtime.Graph().Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", m, err)
		}
	}
}

func TestRunCVDeterministic(t *testing.T) {
	ds, err := BuildDataset(smallData(12))
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunCV(ModelRF, ds, fastCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCV(ModelRF, ds, fastCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if a.Confusion.Counts[i][j] != b.Confusion.Counts[i][j] {
				t.Fatal("same seed produced different confusion matrices")
			}
		}
	}
}

func TestRunCVUnknownModel(t *testing.T) {
	ds, err := BuildDataset(smallData(13))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCV(Model("bogus"), ds, fastCfg(13)); err == nil {
		t.Fatal("want error for unknown model")
	}
}

func TestReduceWithPCAShrinks(t *testing.T) {
	ds, err := BuildDataset(smallData(14))
	if err != nil {
		t.Fatal(err)
	}
	rt := compss.New(compss.Config{})
	rx, k, err := ReduceWithPCA(rt, ds, fastCfg(14))
	if err != nil {
		t.Fatal(err)
	}
	if rx.Rows != ds.X.Rows || rx.Cols != k {
		t.Fatalf("reduced shape %dx%d, k=%d", rx.Rows, rx.Cols, k)
	}
	if k >= ds.X.Cols {
		t.Fatalf("PCA did not reduce: %d of %d", k, ds.X.Cols)
	}
}

func TestTrainGraphShapes(t *testing.T) {
	ds, err := BuildDataset(smallData(15))
	if err != nil {
		t.Fatal(err)
	}
	rtp := compss.New(compss.Config{})
	rx, _, err := ReduceWithPCA(rtp, ds, fastCfg(15))
	if err != nil {
		t.Fatal(err)
	}
	want := map[Model][]string{
		ModelCSVM: {"svc_fit", "svc_merge"},
		ModelKNN:  {"scaler_partial", "scaler_transform", "nn_fit"},
		ModelRF:   {"rf_gather", "rf_bootstrap", "rf_split", "rf_subtree", "rf_join"},
		ModelCNN:  {"cnn_distribute", "cnn_partition", "cnn_train", "cnn_merge", "cnn_eval"},
	}
	for m, names := range want {
		rt, err := TrainGraph(m, rx, ds.Y, fastCfg(15))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		counts := rt.Graph().CountByName()
		for _, n := range names {
			if counts[n] == 0 {
				t.Fatalf("%s graph missing %q tasks: %v", m, n, counts)
			}
		}
		// Every captured graph must be schedulable on a small cluster.
		c := cluster.MareNostrum4(1)
		if m == ModelCNN {
			c = cluster.CTEPower(1)
		}
		if _, err := cluster.ScheduleGraph(rt.Graph(), c); err != nil {
			t.Fatalf("%s: schedule: %v", m, err)
		}
	}
}

func TestTrainGraphNestedCNNFasterOnManyNodes(t *testing.T) {
	ds, err := BuildDataset(smallData(16))
	if err != nil {
		t.Fatal(err)
	}
	rtp := compss.New(compss.Config{})
	rx, _, err := ReduceWithPCA(rtp, ds, fastCfg(16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(16)
	cfg.CNNTrain = eddl.TrainConfig{Folds: 5, Epochs: 3, Workers: 4}

	plainRT, err := TrainGraph(ModelCNN, rx, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nestedRT, err := TrainGraph(ModelCNNNested, rx, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.CTEPower(5)
	plain, err := cluster.ScheduleGraph(plainRT.Graph(), c)
	if err != nil {
		t.Fatal(err)
	}
	nested, err := cluster.ScheduleGraph(nestedRT.Graph(), c)
	if err != nil {
		t.Fatal(err)
	}
	speedup := plain.Makespan / nested.Makespan
	if speedup <= 1.2 {
		t.Fatalf("nesting speedup %v, want > 1.2 (paper: 2.24)", speedup)
	}
	// The ratio can slightly exceed the fold count because the plain
	// variant also serialises its weight redistributions on the master
	// link between folds; anything far beyond 5 would indicate a bug.
	if speedup > 6 {
		t.Fatalf("nesting speedup %v implausibly high", speedup)
	}
}

func TestStandardizeZeroMeanUnitVariance(t *testing.T) {
	ds, err := BuildDataset(smallData(17))
	if err != nil {
		t.Fatal(err)
	}
	z := Standardize(ds.X)
	if z == ds.X {
		t.Fatal("standardize must not alias input")
	}
	for j := 0; j < z.Cols; j++ {
		var mean, ss float64
		for i := 0; i < z.Rows; i++ {
			mean += z.At(i, j)
		}
		mean /= float64(z.Rows)
		for i := 0; i < z.Rows; i++ {
			d := z.At(i, j) - mean
			ss += d * d
		}
		std := ss / float64(z.Rows)
		if mean > 1e-9 || mean < -1e-9 {
			t.Fatalf("col %d mean %v", j, mean)
		}
		if std > 1e-9 && (std < 0.99 || std > 1.01) {
			t.Fatalf("col %d variance %v", j, std)
		}
	}
}

// Acceptance test for the fault-tolerance layer: injected faults kill the
// first attempt of two distinct task kinds in the AF-detection pipeline —
// a data-loading task (error) and a forest task (panic) — and with a retry
// budget the cross-validation still completes with a confusion
// matrix bit-identical to the fault-free run, because doomed attempts never
// run the real body and retried bodies compute their output exactly once.
func TestRunCVSurvivesInjectedFaultsBitIdentical(t *testing.T) {
	ds, err := BuildDataset(smallData(14))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunCV(ModelRF, ds, fastCfg(14))
	if err != nil {
		t.Fatal(err)
	}

	cfg := fastCfg(14)
	cfg.Runtime.DefaultRetries = 2
	cfg.Runtime.DefaultBackoff = 5
	cfg.Runtime.Faults = &compss.FaultPlan{Faults: []compss.Fault{
		{Name: "load_block", Nth: 0, Attempts: 1, Mode: compss.FaultError},
		{Name: "rf_bootstrap", Nth: 0, Attempts: 1, Mode: compss.FaultPanic},
	}}
	faulty, err := RunCV(ModelRF, ds, cfg)
	if err != nil {
		t.Fatalf("run must survive the injected faults: %v", err)
	}

	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if clean.Confusion.Counts[i][j] != faulty.Confusion.Counts[i][j] {
				t.Fatalf("confusion[%d][%d]: clean %d, faulty %d — retries changed the result",
					i, j, clean.Confusion.Counts[i][j], faulty.Confusion.Counts[i][j])
			}
		}
	}

	g := faulty.Runtime.Graph()
	kinds := map[string]int{}
	for _, ev := range g.FailureEvents() {
		tk, ok := g.Task(ev.Task)
		if !ok {
			t.Fatalf("failure event for unknown task %d", ev.Task)
		}
		kinds[tk.Name]++
	}
	if len(kinds) < 2 {
		t.Fatalf("faults hit %v, want >= 2 distinct task kinds", kinds)
	}
	if kinds["load_block"] == 0 || kinds["rf_bootstrap"] == 0 {
		t.Fatalf("faults hit %v, want both load_block and rf_bootstrap", kinds)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph with failure events fails validation: %v", err)
	}

	// The recovery cost is visible in a virtual replay and strictly exceeds
	// the fault-free replay of the same workflow.
	sch, err := cluster.ScheduleGraph(g.Scaled(1e4, 1e3), cluster.MareNostrum4(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.FailedAttempts) != len(g.FailureEvents()) {
		t.Fatalf("replayed %d failed attempts for %d events",
			len(sch.FailedAttempts), len(g.FailureEvents()))
	}
	if sch.WastedCoreSeconds <= 0 {
		t.Fatal("replay shows no recovery cost")
	}
}
