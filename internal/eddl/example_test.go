package eddl_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"taskml/internal/cluster"
	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/eddl"
	"taskml/internal/mat"
)

// The extension the paper's conclusions propose: "various devices with
// local data contribute to training local models, and the resulting
// outcomes are then combined by a general model" — FedAvg over the task
// runtime, where each wearable's ECG windows stay inside its own training
// task (the privacy constraint of healthcare data) and only model weights
// travel. The run contrasts IID device data with a pathologically skewed
// (non-IID) federation, the regime real wearable fleets live in.
func ExampleTrainFederated() {
	ds, err := core.BuildDataset(core.DataConfig{
		NNormal: 120, NAF: 20, Seed: 21,
		MinDurSec: 9, MaxDurSec: 12, NoiseStd: 0.08, AFSubtlety: 0.3,
		Feature: core.FeatureConfig{PadSec: 12, Window: 256, MaxFreqHz: 25, TimePool: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	rt := compss.New(compss.Config{})
	rx, k, err := core.ReduceWithPCA(rt, ds, core.PipelineConfig{Seed: 21, BlockRows: 48})
	if err != nil {
		log.Fatal(err)
	}
	rx = core.Standardize(rx)
	fmt.Printf("dataset: %d windows, PCA %d → %d features (standardized)\n\n", rx.Rows, ds.X.Cols, k)

	arch := eddl.Arch{InputLen: k, Filters: 8, Kernel: 3, Stride: 2, Hidden: 16, Classes: 2}
	for _, skew := range []float64{0, 0.9} {
		frt := compss.New(compss.Config{})
		res, err := eddl.TrainFederated(frt, rx, ds.Y, arch, eddl.FederatedConfig{
			Devices: 6, Rounds: 10, LocalEpochs: 3, LR: 0.1, Seed: 21, NonIID: skew,
		})
		if err != nil {
			log.Fatal(err)
		}
		kind := "IID devices"
		if skew > 0 {
			kind = fmt.Sprintf("non-IID devices (skew %.1f)", skew)
		}
		fmt.Printf("=== %s — %d devices × %d rounds (%d tasks)\n",
			kind, 6, 10, frt.Graph().Len())
		fmt.Printf("device shard sizes: %v\n", res.DeviceSamples)
		fmt.Print("holdout accuracy per round:")
		for _, a := range res.RoundAccuracies {
			fmt.Printf(" %.2f", a)
		}
		fmt.Printf("\nfinal: %.1f%%  AF recall %.3f\n\n",
			100*res.Accuracy(), res.Confusion.Recall(core.LabelAF))
	}
	fmt.Println("only weights left the devices; every shard stayed inside its fed_local tasks")
	// Output:
	// dataset: 240 windows, PCA 154 → 23 features (standardized)
	//
	// === IID devices — 6 devices × 10 rounds (86 tasks)
	// device shard sizes: [32 32 32 32 32 32]
	// holdout accuracy per round: 0.58 0.69 0.79 0.81 0.81 0.83 0.83 0.85 0.85 0.85
	// final: 85.4%  AF recall 0.913
	//
	// === non-IID devices (skew 0.9) — 6 devices × 10 rounds (86 tasks)
	// device shard sizes: [32 32 32 32 32 32]
	// holdout accuracy per round: 0.52 0.58 0.62 0.67 0.69 0.73 0.71 0.75 0.75 0.81
	// final: 81.2%  AF recall 0.913
	//
	// only weights left the devices; every shard stayed inside its fed_local tasks
}

// The paper's two CNN training workflows (§III-D, Figures 9 and 10):
// without nesting, every epoch's weight merge is a synchronisation in the
// main program that stops task generation, so the 5 folds serialise; with
// nesting, each fold is a task whose internal synchronisations stay local,
// so the folds overlap. Both variants train for real on a small
// frequency-discrimination dataset; the virtual CTE-Power replay shows the
// speedup. With this example's unscaled costs the shared distribution
// stage is small, so the five folds overlap almost fully; at the paper's
// costs (go run ./cmd/scaling -exp cnn) the gain is 2.30×, against the
// paper's 2.24×.
func ExampleTrainKFold() {
	rng := rand.New(rand.NewSource(5))
	const n, length = 300, 32
	x := mat.New(n, length)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		freq := 2.0
		if c == 1 {
			freq = 5.0
		}
		phase := float64(2 * math.Pi * rng.Float64())
		for j := 0; j < length; j++ {
			x.Set(i, j, math.Sin(2*math.Pi*freq*float64(j)/float64(length)+phase)+float64(0.15*rng.NormFloat64()))
		}
	}
	arch := eddl.Arch{InputLen: 32, Filters: 8, Kernel: 3, Stride: 2, Hidden: 16, Classes: 2}
	cfg := eddl.TrainConfig{Folds: 5, Epochs: 7, Workers: 4, GPUsPerTask: 1, Seed: 5}

	type result struct {
		name     string
		acc      float64
		makespan float64
		tasks    int
	}
	var results []result
	for _, nested := range []bool{false, true} {
		rt := compss.New(compss.Config{})
		res, err := eddl.TrainKFold(rt, x, y, arch, cfg, nested)
		if err != nil {
			log.Fatal(err)
		}
		if err := rt.Barrier(); err != nil {
			log.Fatal(err)
		}
		sched, err := cluster.ScheduleGraph(rt.Graph(), cluster.CTEPower(5))
		if err != nil {
			log.Fatal(err)
		}
		name := "plain (Figure 9)"
		if nested {
			name = "nested (Figure 10)"
		}
		results = append(results, result{name, res.Accuracy(), sched.Makespan, rt.Graph().Len()})
	}

	fmt.Printf("%-20s %10s %14s %8s\n", "variant", "accuracy", "virtual time", "tasks")
	for _, r := range results {
		fmt.Printf("%-20s %9.1f%% %12.2f s %8d\n", r.name, 100*r.acc, r.makespan, r.tasks)
	}
	fmt.Printf("\nnesting speedup on 5 CTE-Power nodes: %.2fx (the paper reports 2.24x)\n",
		results[0].makespan/results[1].makespan)
	fmt.Println("model quality is identical: the same tasks run, only the synchronisation scope changes")
	// Output:
	// variant                accuracy   virtual time    tasks
	// plain (Figure 9)          80.3%         0.87 s      191
	// nested (Figure 10)        80.3%         0.19 s      196
	//
	// nesting speedup on 5 CTE-Power nodes: 4.60x (the paper reports 2.24x)
	// model quality is identical: the same tasks run, only the synchronisation scope changes
}
