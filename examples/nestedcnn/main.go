// nestedcnn contrasts the paper's two CNN training workflows (§III-D,
// Figures 9 and 10): without nesting, every epoch's weight merge is a
// synchronisation in the main program that stops task generation, so the 5
// folds serialise; with nesting, each fold is a task whose internal
// synchronisations stay local, so the folds overlap. Both variants train
// for real on a small frequency-discrimination dataset; the virtual
// CTE-Power replay shows the speedup (the paper measures 2.24×).
//
// Run: go run ./examples/nestedcnn
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"taskml/internal/cluster"
	"taskml/internal/compss"
	"taskml/internal/eddl"
	"taskml/internal/mat"
)

func dataset(rng *rand.Rand, n, length int) (*mat.Dense, []int) {
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
	return x, y
}

func main() {
	rng := rand.New(rand.NewSource(5))
	x, y := dataset(rng, 300, 32)
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
}
