// Command taskgraph regenerates the PyCOMPSs-style execution graphs of the
// paper (Figures 4, 6, 8, 9 and 10): it runs a reduced instance of the
// selected workflow on the task runtime and prints the captured dependency
// graph in Graphviz DOT format.
//
// Usage:
//
//	taskgraph -model csvm        # Figure 4
//	taskgraph -model knn         # Figure 6
//	taskgraph -model rf          # Figure 8
//	taskgraph -model cnn         # Figure 9 (per-epoch synchronisations)
//	taskgraph -model cnn-nested  # Figure 10 (nesting)
//
// Pipe the output through `dot -Tsvg` to render.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/eddl"
	"taskml/internal/exec"
	"taskml/internal/trace"
)

func main() {
	exec.MaybeWorkerMain() // loopback re-exec hook: serve tasks instead when spawned as a worker
	model := flag.String("model", "csvm", "workflow to capture: csvm | knn | rf | cnn | cnn-nested")
	samples := flag.Int("samples", 160, "dataset rows for the reduced instance")
	blockRows := flag.Int("block-rows", 40, "ds-array row-block size")
	stats := flag.Bool("stats", false, "print graph statistics instead of DOT")
	provenance := flag.Bool("provenance", false, "print a provenance JSON record instead of DOT")
	traceOut := flag.String("trace", "", "write a Chrome trace of the captured run to this file")
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
		MinDurSec: 9, MaxDurSec: 12,
		Feature: core.FeatureConfig{PadSec: 12, Window: 256, MaxFreqHz: 25, TimePool: 2},
	})
	if err != nil {
		fatal(err)
	}

	cfg := core.PipelineConfig{
		Seed:      1,
		BlockRows: *blockRows,
		BlockCols: 64,
		CNNTrain:  eddl.TrainConfig{Folds: 5, Epochs: 3, Workers: 4},
		Runtime:   compss.Config{Backend: backend},
	}
	var collector *trace.Collector
	if *traceOut != "" {
		collector = trace.NewCollectorFor(backend)
		cfg.Runtime.Observers = []compss.Observer{collector}
	}

	// The graph of interest is the training workflow (the paper's figures
	// show fit-time task graphs).
	rt, err := core.TrainGraph(core.Model(*model), ds.X, ds.Y, cfg)
	if err != nil {
		fatal(err)
	}
	g := rt.Graph()
	if collector != nil {
		if err := collector.Chrome().WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "taskgraph: trace -> %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
	if *provenance {
		p := g.Export(*model, map[string]string{
			"samples":    fmt.Sprint(*samples),
			"block_rows": fmt.Sprint(*blockRows),
		}, time.Now())
		if err := p.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *stats {
		fmt.Printf("workflow: %s\n", *model)
		fmt.Printf("tasks: %d\n", g.Len())
		fmt.Printf("critical path: %.3f reference-seconds\n", g.CriticalPath())
		fmt.Printf("total work: %.3f reference-seconds\n", g.TotalCost())
		fmt.Printf("max width: %d\n", g.MaxWidth())
		fmt.Println("tasks by name:")
		counts := g.CountByName()
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-18s %d\n", name, counts[name])
		}
		return
	}
	fmt.Print(g.DOT(*model))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "taskgraph:", err)
	os.Exit(1)
}
