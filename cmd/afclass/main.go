// Command afclass runs the paper's end-to-end AF-classification experiment
// (§IV-B, Table I): it builds the synthetic ECG dataset with the calibrated
// Table I configuration, applies the augmentation/zero-padding/STFT/PCA
// preprocessing, trains the selected model(s) with 5-fold cross-validation
// on the task runtime, and prints the accuracy and Table I-style confusion
// matrix.
//
// Usage:
//
//	afclass                      # all four models, laptop-scale dataset
//	afclass -model rf            # a single model
//	afclass -model cnn-nested    # the CNN with each fold nested in one task (Figure 10)
//	afclass -scale 4             # 4× the class counts (slower, smoother)
//	afclass -trace run.json      # Chrome trace of the run (open in Perfetto)
//	afclass -backend remote      # registered tasks on loopback worker processes
//	afclass -backend remote -peers host1:7077,host2:7077   # external workers
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/exec"
	"taskml/internal/trace"
)

func main() {
	exec.MaybeWorkerMain() // loopback re-exec hook: serve tasks instead when spawned as a worker
	model := flag.String("model", "all", "model to run: csvm | knn | rf | cnn | cnn-nested | all")
	scale := flag.Int("scale", 1, "dataset scale (1 → 120 Normal + 18 AF before augmentation)")
	seed := flag.Int64("seed", 1, "experiment seed")
	workers := flag.Int("workers", 0, "runtime worker goroutines (0 = GOMAXPROCS)")
	traceOut := flag.String("trace", "", "write a Chrome trace of the real execution to this file")
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

	// Dataset construction runs on the master, before any task runtime
	// exists: let the kernel layer (internal/par) use the whole machine.
	dcfg := core.TableIData(*scale, *seed)
	fmt.Printf("building dataset: %d Normal + %d AF, balancing by shuffling augmentation...\n",
		dcfg.NNormal, dcfg.NAF)
	start := time.Now()
	ds, err := core.BuildDataset(dcfg)
	if err != nil {
		fatal(err)
	}
	af, n := ds.Counts()
	fmt.Printf("dataset ready in %v: %d AF / %d Normal, %d features per recording\n",
		time.Since(start).Round(time.Millisecond), af, n, ds.X.Cols)

	cfg := core.TableIPipeline(*seed)
	cfg.Runtime = compss.Config{Workers: *workers, Backend: backend}

	// One collector spans the PCA runtime and every per-model runtime, so
	// the exported trace shows the whole experiment on a shared clock.
	var collector *trace.Collector
	if *traceOut != "" {
		collector = trace.NewCollectorFor(backend)
		cfg.Runtime.Observers = []compss.Observer{collector}
	}

	// The PCA stage is shared by all models (the paper excludes its
	// constant time from the per-model results); run it once.
	start = time.Now()
	rt := compss.New(cfg.Runtime)
	rx, k, err := core.ReduceWithPCA(rt, ds, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("PCA: %d → %d features (%v)\n\n", ds.X.Cols, k, time.Since(start).Round(time.Millisecond))

	models := []core.Model{core.Model(*model)}
	if *model == "all" {
		models = core.Models
	}
	for _, m := range models {
		start = time.Now()
		mrt := compss.New(cfg.Runtime)
		rep, err := core.RunCVReduced(m, mrt, rx, k, ds.Y, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", m, err))
		}
		fmt.Printf("=== %s (wall time %v)\n", m, time.Since(start).Round(time.Millisecond))
		fmt.Printf("accuracy: %.1f%%   AF precision: %.3f   AF recall: %.3f\n",
			100*rep.Accuracy(), rep.Confusion.Precision(core.LabelAF), rep.Confusion.Recall(core.LabelAF))
		fmt.Println(rep.RenderConfusion())
		fmt.Printf("captured task graph: %d tasks\n\n", mrt.Graph().Len())
	}

	if collector != nil {
		if err := collector.Chrome().WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d events -> %s (open in https://ui.perfetto.dev)\n",
			len(collector.Events()), *traceOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "afclass:", err)
	os.Exit(1)
}
