// Command gantt runs one of the paper's training workflows, replays its
// captured graph on a virtual cluster, and prints where the time goes: a
// per-phase breakdown (which task kind dominates, when each phase starts
// and drains) and, optionally, the full schedule as CSV for plotting — a
// poor man's Paraver, in the spirit of the execution traces the paper's
// artifact publishes.
//
// Usage:
//
//	gantt -model csvm -nodes 2            # phase breakdown on 2 MN4 nodes
//	gantt -model cnn -nodes 5 -csv > g.csv
//	gantt -model rf -nodes 2 -faults 9    # replay with injected failures;
//	                                      # lost attempts appear as name!k rows
//	gantt -model rf -faults 9 -trace replay.json   # replayed schedule as a
//	                                      # Chrome trace (open in Perfetto)
package main

import (
	"flag"
	"fmt"
	"os"

	"taskml/internal/cluster"
	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/eddl"
	"taskml/internal/exec"
	"taskml/internal/svm"
)

func main() {
	exec.MaybeWorkerMain() // loopback re-exec hook: serve tasks instead when spawned as a worker
	model := flag.String("model", "csvm", "workflow: csvm | knn | rf | cnn | cnn-nested")
	nodes := flag.Int("nodes", 2, "virtual cluster nodes (MareNostrum4 for classical models, CTE-Power for the CNN)")
	samples := flag.Int("samples", 300, "dataset rows for the captured instance")
	csv := flag.Bool("csv", false, "emit the schedule as CSV (task,name,node,start,end) instead of the breakdown")
	faults := flag.Int("faults", 0, "inject a first-attempt failure into every Nth task (0 disables)")
	retries := flag.Int("retries", 2, "per-task retry budget when -faults is set")
	backoff := flag.Float64("backoff", 5, "virtual-time retry backoff base in seconds")
	traceOut := flag.String("trace", "", "write the replayed schedule as a Chrome trace to this file")
	var ecfg exec.Config
	ecfg.Flags(flag.CommandLine)
	flag.Parse()

	backend, err := exec.Open(ecfg)
	if err != nil {
		fatal(err)
	}
	if backend != nil {
		defer backend.Close()
	}

	ds, err := core.BuildDataset(core.DataConfig{
		NNormal: *samples * 3 / 4, NAF: *samples / 4, Seed: 1,
		MinDurSec: 9, MaxDurSec: 12, NoiseStd: 0.05, AFSubtlety: 0.05,
		Feature: core.FeatureConfig{PadSec: 12, Window: 256, MaxFreqHz: 25, TimePool: 2},
	})
	if err != nil {
		fatal(err)
	}

	cfg := core.PipelineConfig{
		Seed:      1,
		BlockRows: 40,
		BlockCols: ds.X.Cols,
		CSVM:      svm.CascadeParams{Iterations: 2},
		CNNTrain:  eddl.TrainConfig{Folds: 5, Epochs: 7, Workers: 4},
		Runtime:   compss.Config{Backend: backend},
	}
	if *faults > 0 {
		cfg.Runtime.Faults = &compss.FaultPlan{Faults: []compss.Fault{
			{EveryNth: *faults, Attempts: 1, Mode: compss.FaultError, AtFraction: 0.5},
		}}
		cfg.Runtime.DefaultRetries = *retries
		cfg.Runtime.DefaultBackoff = *backoff
	}
	m := core.Model(*model)
	rt, err := core.TrainGraph(m, ds.X, ds.Y, cfg)
	if err != nil {
		fatal(err)
	}
	// Paper-scale task weights, as in cmd/scaling.
	g := rt.Graph().Scaled(1e4, 1e3)
	var c cluster.Cluster
	if m == core.ModelCNN || m == core.ModelCNNNested {
		c = cluster.CTEPower(*nodes)
	} else {
		c = cluster.MareNostrum4(*nodes)
	}
	s, err := cluster.ScheduleGraph(g, c)
	if err != nil {
		fatal(err)
	}

	if *traceOut != "" {
		if err := s.ChromeTrace(g).WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gantt: replay trace -> %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
	if *csv {
		fmt.Print(s.GanttCSV(g))
		return
	}
	fmt.Printf("workflow %s on %s: makespan %.2f s, utilization %.1f%%, %s moved\n",
		*model, c.Name, s.Makespan, 100*s.Utilization, humanBytes(s.BytesMoved))
	fmt.Printf("serialized tail (<2 concurrent tasks): %.0f%% of the makespan\n\n",
		100*s.CriticalTail(2))
	fmt.Print(s.BreakdownTable(g))
	if len(s.FailedAttempts) > 0 {
		fmt.Println()
		fmt.Print(s.RecoverySummary(g))
	}
}

func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gantt:", err)
	os.Exit(1)
}
