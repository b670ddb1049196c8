// Command scaling regenerates the scalability results of the paper's
// evaluation: Figures 11a (CSVM), 11b (StandardScaler+KNN), 11c
// (RandomForest) on a MareNostrum4-like cluster model, and Figure 12 (the
// three EDDL CNN configurations) on a CTE-Power-like GPU cluster model.
//
// The workflow really executes once on the local task runtime (so the
// captured graph is the true dependency structure); the captured graph is
// then replayed by the deterministic virtual-cluster scheduler for every
// cluster size in the sweep, and the makespans are printed as the figure's
// series. Absolute seconds depend on the cost-model calibration
// (internal/costs); the shapes — who scales, where it saturates, which
// configuration wins — are the reproduction target (see EXPERIMENTS.md).
//
// Usage:
//
//	scaling -exp csvm   # Figure 11a
//	scaling -exp knn    # Figure 11b
//	scaling -exp rf     # Figure 11c
//	scaling -exp cnn    # Figure 12
//	scaling -exp pca    # the ≈850 s PCA stage the paper excludes
//
// The -faults sweep injects a deterministic failure into the first attempt
// of every Nth task of the model workflow (retried under the runtime's
// fault-tolerance layer) and reports the recovery overhead of the replayed
// schedule against the fault-free baseline:
//
//	scaling -exp csvm -faults 7              # kill task 0, 7, 14, ...
//	scaling -exp rf -faults 5 -retries 3
//
// With -trace base.json the real execution's Chrome trace is written to
// base.json and the replayed schedule of the sweep's last cluster size to
// base.replay.json — both open in Perfetto (https://ui.perfetto.dev).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"taskml/internal/cluster"
	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/dsarray"
	"taskml/internal/eddl"
	"taskml/internal/exec"
	"taskml/internal/graph"
	"taskml/internal/mat"
	"taskml/internal/par"
	"taskml/internal/preproc"
	"taskml/internal/svm"
	"taskml/internal/trace"
)

// Paper-scale emulation factors (derivations in EXPERIMENTS.md): the
// classical models' per-task work scales with (block rows)² × features —
// the paper's 500-row, 3269-feature blocks against this run's 50-row,
// ~31-feature blocks give ≈10⁴ on cost and ≈10³ on payload. The CNN runs on
// V100s, so its compute ratio is much smaller (≈5) while its payloads scale
// with the raw feature width (≈750).
const (
	// CSVM tasks cost O(rows² · features): (500/50)² · (3269/31) ≈ 10⁴.
	CSVMCostScale = 1e4
	// Scaler/KNN-fit tasks cost O(rows · features): ≈ 10³.
	KNNCostScale = 1e3
	// Tree tasks cost O(rows · features · depth): (6800/1200) · (3269/31) ≈ 500.
	RFCostScale = 500
	// PCA tasks cost O(rows·features²) for the Gram phase and O(features³)
	// for the eigendecomposition; both ratios land near
	// (6800/600)·(3269/280)² ≈ (3269/280)³ ≈ 1.5·10³.
	PCACostScale = 1.5e3
	// Payloads scale with rows · features ≈ 10³ for the classical models.
	BytesScale         = 1e3
	CNNComputeScale    = 900
	CNNPayloadScale    = 750
	CNNDistributeScale = 12
)

// ft holds the fault-injection settings shared by the experiment runners;
// filled from flags in main. every == 0 disables injection.
var ft struct {
	every   int
	retries int
	backoff float64
}

// collector captures the real execution's event stream when -trace is set;
// traceOut is the output path. Shared by the runners the same way ft is.
var (
	collector *trace.Collector
	traceOut  string
)

// backend is the execution backend behind -backend/-peers (nil = local),
// shared by the runners the same way ft is.
var backend exec.Backend

// observers is the observer list shared by every runtime this command
// creates: the trace collector when -trace is set, otherwise none, so the
// runtimes keep the zero-observer submit path.
func observers() []compss.Observer {
	if collector == nil {
		return nil
	}
	return []compss.Observer{collector}
}

// replayPath derives the replay trace's file name from -trace's value:
// base.json → base.replay.json.
func replayPath(p string) string {
	return strings.TrimSuffix(p, ".json") + ".replay.json"
}

// writeReplayTrace exports the replayed schedule of the sweep's last
// cluster configuration when -trace is set.
func writeReplayTrace(s *cluster.Schedule, g *graph.Graph) {
	if traceOut == "" || s == nil {
		return
	}
	out := replayPath(traceOut)
	if err := s.ChromeTrace(g).WriteFile(out); err != nil {
		fatal(err)
	}
	fmt.Printf("replay trace -> %s\n\n", out)
}

// writeRunTrace exports the real execution's collected events; called once
// after the experiment finished.
func writeRunTrace() {
	if collector == nil {
		return
	}
	if err := collector.Chrome().WriteFile(traceOut); err != nil {
		fatal(err)
	}
	fmt.Printf("run trace: %d events -> %s (open in https://ui.perfetto.dev)\n",
		len(collector.Events()), traceOut)
}

// faultPlan returns the injection plan for the model workflow, or nil when
// -faults is off: the first attempt of every Nth task (by graph ID) fails
// halfway through its virtual cost.
func faultPlan() *compss.FaultPlan {
	if ft.every <= 0 {
		return nil
	}
	return &compss.FaultPlan{Faults: []compss.Fault{
		{EveryNth: ft.every, Attempts: 1, Mode: compss.FaultError, AtFraction: 0.5},
	}}
}

// withFaults applies the -faults and -trace settings to a pipeline
// configuration.
func withFaults(cfg core.PipelineConfig) core.PipelineConfig {
	cfg.Observers = observers()
	cfg.Backend = backend
	if ft.every <= 0 {
		return cfg
	}
	cfg.Faults = faultPlan()
	cfg.Retries = ft.retries
	cfg.RetryBackoff = ft.backoff
	return cfg
}

func main() {
	exec.MaybeWorkerMain() // loopback re-exec hook: serve tasks instead when spawned as a worker
	exp := flag.String("exp", "csvm", "experiment: csvm | knn | rf | cnn | pca")
	samples := flag.Int("samples", 1200, "dataset rows (after balancing)")
	seed := flag.Int64("seed", 1, "experiment seed")
	flag.IntVar(&ft.every, "faults", 0, "inject a first-attempt failure into every Nth task of the model workflow (0 disables)")
	flag.IntVar(&ft.retries, "retries", 2, "per-task retry budget when -faults is set")
	flag.Float64Var(&ft.backoff, "backoff", 5, "virtual-time retry backoff base in seconds (the retry after failed attempt k waits backoff·2^k)")
	flag.StringVar(&traceOut, "trace", "", "write Chrome traces: the real run to this file, the last replayed schedule to <name>.replay.json")
	var ecfg exec.Config
	ecfg.Flags(flag.CommandLine)
	flag.Parse()
	if traceOut != "" {
		collector = trace.NewCollector()
	}
	var err error
	backend, err = exec.Open(ecfg)
	if err != nil {
		fatal(err)
	}
	if backend != nil {
		defer backend.Close()
	}
	if r, ok := backend.(*exec.Remote); ok && collector != nil {
		r.SetCacheHook(collector.AddCacheSample)
		r.SetFleetHook(collector.AddFleetEvent)
	}

	fmt.Printf("generating dataset (%d rows)...\n", *samples)
	// The scaling experiments need the workflow structure and costs, not
	// model quality: an easy, well-separated dataset keeps the real SMO
	// executions fast.
	ds, err := core.BuildDataset(core.DataConfig{
		NNormal: *samples * 5 / 12, NAF: *samples / 12, Seed: *seed,
		MinDurSec: 9, MaxDurSec: 15,
		NoiseStd: 0.05, AFSubtlety: 0.05,
		Feature: core.FeatureConfig{PadSec: 15, Window: 256, MaxFreqHz: 40, TimePool: 2},
	})
	if err != nil {
		fatal(err)
	}

	// Dataset generation above ran kernels at full width on the master;
	// everything below executes through task runtimes, so hand the cores to
	// the worker pool (see the internal/par oversubscription contract).
	par.SetLimit(1)

	if *exp == "pca" {
		runPCA(ds)
		writeRunTrace()
		return
	}

	// The paper's Figure 11 protocol: PCA runs first and its time is not
	// counted; models train on the reduced features. The trace collector
	// still spans it: the exported run shows the whole experiment.
	rt := compss.New(compss.Config{Observers: observers(), Backend: backend})
	rx, k, err := core.ReduceWithPCA(rt, ds, core.PipelineConfig{BlockRows: 100, BlockCols: 100})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("PCA reduced %d → %d features\n\n", ds.X.Cols, k)

	switch *exp {
	case "csvm":
		runCSVM(rx, ds.Y, *seed)
	case "knn":
		runKNN(rx, ds.Y, *seed)
	case "rf":
		runRF(rx, ds.Y, *seed)
	case "cnn":
		runCNN(rx, ds.Y, *seed)
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	writeRunTrace()
}

func sweepTable(title string, g *graph.Graph, configs []cluster.Cluster) {
	if len(g.FailureEvents()) > 0 {
		faultSweepTable(title, g, configs)
		return
	}
	fmt.Printf("=== %s (%d tasks, critical path %.1f s, total work %.1f s)\n",
		title, g.Len(), g.CriticalPath(), g.TotalCost())
	fmt.Printf("%8s %8s %12s %10s %12s\n", "nodes", "cores", "time (s)", "speedup", "utilization")
	var base float64
	var last *cluster.Schedule
	for _, c := range configs {
		s, err := cluster.ScheduleGraph(g, c)
		if err != nil {
			fatal(err)
		}
		if base == 0 {
			base = s.Makespan
		}
		fmt.Printf("%8d %8d %12.2f %10.2fx %11.1f%%\n",
			len(c.Nodes), c.TotalCores(), s.Makespan, base/s.Makespan, 100*s.Utilization)
		last = s
	}
	fmt.Println()
	writeReplayTrace(last, g)
}

// faultSweepTable compares the fault-injected replay against the fault-free
// baseline of the same graph on every cluster size: the overhead column is
// the recovery cost (retried attempts + backoff + re-transfers) the
// schedule pays.
func faultSweepTable(title string, g *graph.Graph, configs []cluster.Cluster) {
	clean := g.WithoutFailures()
	events := g.FailureEvents()
	fmt.Printf("=== %s (%d tasks, %d injected failures, %d degraded)\n",
		title, g.Len(), len(events), len(g.DegradedTasks()))
	fmt.Printf("%8s %8s %12s %12s %10s %12s\n",
		"nodes", "cores", "clean (s)", "faulty (s)", "overhead", "wasted (c·s)")
	var last *cluster.Schedule
	for _, c := range configs {
		s0, err := cluster.ScheduleGraph(clean, c)
		if err != nil {
			fatal(err)
		}
		s1, err := cluster.ScheduleGraph(g, c)
		if err != nil {
			fatal(err)
		}
		overhead := 0.0
		if s0.Makespan > 0 {
			overhead = 100 * (s1.Makespan - s0.Makespan) / s0.Makespan
		}
		fmt.Printf("%8d %8d %12.2f %12.2f %9.1f%% %12.2f\n",
			len(c.Nodes), c.TotalCores(), s0.Makespan, s1.Makespan, overhead, s1.WastedCoreSeconds)
		last = s1
	}
	if last != nil {
		fmt.Print(last.RecoverySummary(g))
	}
	fmt.Println()
	writeReplayTrace(last, g)
}

// runCSVM regenerates Figure 11a: the paper runs 6 tasks per node, each
// using 8 cores, and sees improvements up to 192 cores.
func runCSVM(x *mat.Dense, y []int, seed int64) {
	rt, err := core.TrainGraph(core.ModelCSVM, x, y, withFaults(core.PipelineConfig{
		Seed:      seed,
		BlockRows: 50, // ~24 row blocks: the first cascade layer
		BlockCols: x.Cols,
		CSVM:      svm.CascadeParams{CoresPerTask: 8, Iterations: 3},
	}))
	if err != nil {
		fatal(err)
	}
	var configs []cluster.Cluster
	for _, nodes := range []int{1, 2, 3, 4, 6, 8} {
		configs = append(configs, cluster.MareNostrum4(nodes))
	}
	sweepTable("Figure 11a — CSVM training time vs cores (8 cores/task)", rt.Graph().Scaled(CSVMCostScale, BytesScale), configs)
}

// runKNN regenerates Figure 11b: StandardScaler + KNN fit, 250×250-style
// blocking (scaled to the dataset).
func runKNN(x *mat.Dense, y []int, seed int64) {
	rt, err := core.TrainGraph(core.ModelKNN, x, y, withFaults(core.PipelineConfig{
		Seed:      seed,
		BlockRows: 25, // small blocks: parallelism bound by block count
		BlockCols: (x.Cols + 1) / 2,
	}))
	if err != nil {
		fatal(err)
	}
	var configs []cluster.Cluster
	for _, nodes := range []int{1, 2, 3, 4, 6, 8} {
		configs = append(configs, cluster.MareNostrum4(nodes))
	}
	sweepTable("Figure 11b — StandardScaler + KNN fit time vs cores", rt.Graph().Scaled(KNNCostScale, BytesScale), configs)
}

// runRF regenerates Figure 11c: 40 estimators; the paper observes poor,
// erratic scaling (few tasks, load imbalance, extra transfers at 3 nodes).
func runRF(x *mat.Dense, y []int, seed int64) {
	rt, err := core.TrainGraph(core.ModelRF, x, y, withFaults(core.PipelineConfig{
		Seed:      seed,
		BlockRows: 100,
		BlockCols: x.Cols,
	}))
	if err != nil {
		fatal(err)
	}
	var configs []cluster.Cluster
	for _, nodes := range []int{1, 2, 3} {
		configs = append(configs, cluster.MareNostrum4(nodes))
	}
	sweepTable("Figure 11c — RandomForest (40 estimators) time vs nodes", rt.Graph().Scaled(RFCostScale, BytesScale), configs)
}

// runCNN regenerates Figure 12: the three EDDL configurations.
func runCNN(x *mat.Dense, y []int, seed int64) {
	type variant struct {
		label   string
		gpus    int
		nested  bool
		cluster cluster.Cluster
	}
	variants := []variant{
		{"4 GPUs/task, no nesting (4 nodes)", 4, false, cluster.CTEPower(4)},
		{"1 GPU/task, no nesting (1 node)", 1, false, cluster.CTEPower(1)},
		{"1 GPU/task, nesting (5 nodes)", 1, true, cluster.CTEPower(5)},
	}
	fmt.Println("=== Figure 12 — EDDL CNN training configurations")
	fmt.Printf("%-36s %12s %10s\n", "configuration", "time (s)", "speedup")
	var base float64
	var lastSched *cluster.Schedule
	var lastGraph *graph.Graph
	for _, v := range variants {
		rt, err := core.TrainGraph(core.ModelCNN, x, y, withFaults(core.PipelineConfig{
			Seed:      seed,
			CNNNested: v.nested,
			CNNTrain: eddl.TrainConfig{GPUsPerTask: v.gpus, Epochs: 7, Workers: 4, Folds: 5,
				ComputeScale: CNNComputeScale, PayloadScale: CNNPayloadScale,
				DistributeScale: CNNDistributeScale},
		}))
		if err != nil {
			fatal(err)
		}
		g := rt.Graph()
		s, err := cluster.ScheduleGraph(g, v.cluster)
		if err != nil {
			fatal(err)
		}
		if base == 0 {
			base = s.Makespan
		}
		lastSched, lastGraph = s, g
		fmt.Printf("%-36s %12.2f %9.2fx\n", v.label, s.Makespan, base/s.Makespan)
		if len(g.FailureEvents()) > 0 {
			s0, err := cluster.ScheduleGraph(g.WithoutFailures(), v.cluster)
			if err != nil {
				fatal(err)
			}
			overhead := 0.0
			if s0.Makespan > 0 {
				overhead = 100 * (s.Makespan - s0.Makespan) / s0.Makespan
			}
			fmt.Printf("%-36s %12.2f %9.1f%% recovery overhead\n", "  └ fault-free baseline", s0.Makespan, overhead)
		}
	}
	fmt.Println()
	writeReplayTrace(lastSched, lastGraph)
}

// runPCA reports the PCA stage on its own — the paper notes it takes about
// 850 s and excludes it from the per-model plots.
func runPCA(ds *core.Dataset) {
	var rcfg compss.Config
	if ft.every > 0 {
		rcfg = compss.Config{Faults: faultPlan(), DefaultRetries: ft.retries, DefaultBackoff: ft.backoff}
	}
	rcfg.Observers = observers()
	rcfg.Backend = backend
	rt := compss.New(rcfg)
	xa := dsarray.FromMatrix(rt.Main(), ds.X, 100, 100)
	pca := preproc.PCA{VarianceToRetain: 0.95}
	reduced, err := pca.FitTransform(xa)
	if err != nil {
		fatal(err)
	}
	if _, err := reduced.Collect(); err != nil {
		fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		fatal(err)
	}
	var configs []cluster.Cluster
	for _, nodes := range []int{1, 2, 4, 8} {
		configs = append(configs, cluster.MareNostrum4(nodes))
	}
	sweepTable("PCA stage (the paper's ≈850 s constant, excluded from its per-model plots)",
		rt.Graph().Scaled(PCACostScale, BytesScale), configs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scaling:", err)
	os.Exit(1)
}
