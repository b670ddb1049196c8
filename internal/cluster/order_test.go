package cluster

import (
	"math"
	"math/rand"
	"testing"

	"taskml/internal/compss"
	"taskml/internal/eddl"
	"taskml/internal/graph"
	"taskml/internal/mat"
)

// nestedCNNGraph captures the Figure 10 workflow: five fold tasks whose
// bodies submit their own epochs. The ids of the nested tasks record when
// each fold's body happened to submit them, which the host's thread timing
// decides.
func nestedCNNGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	const n, length = 300, 32
	x := mat.New(n, length)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		freq := 2.0 + 3*float64(y[i])
		phase := float64(2 * math.Pi * rng.Float64())
		for j := 0; j < length; j++ {
			x.Set(i, j, math.Sin(2*math.Pi*freq*float64(j)/length+phase)+float64(0.15*rng.NormFloat64()))
		}
	}
	arch := eddl.Arch{InputLen: length, Filters: 8, Kernel: 3, Stride: 2, Hidden: 16, Classes: 2}
	cfg := eddl.TrainConfig{Folds: 5, Epochs: 7, Workers: 4, GPUsPerTask: 1, Seed: 5}
	rt := compss.New(compss.Config{})
	if _, err := eddl.TrainKFold(rt, x, y, arch, cfg, true); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	return rt.Graph()
}

// relabel renumbers g in another valid submission order: among the tasks
// whose parent and dependencies already have new ids, it takes the one
// before sorts first. Siblings must keep their relative order — one body
// submits them in program order — or relabel fails the test.
func relabel(t *testing.T, g *graph.Graph, before func(a, b []int) bool) *graph.Graph {
	t.Helper()
	tasks := g.Tasks()
	// path[id] is the ordinal of each ancestor among its siblings, outermost
	// first, ending with the task's own.
	path := make([][]int, len(tasks))
	next := map[int]int{}
	for _, tk := range tasks {
		if tk.Parent >= 0 {
			path[tk.ID] = append(path[tk.ID], path[tk.Parent]...)
		}
		path[tk.ID] = append(path[tk.ID], next[tk.Parent])
		next[tk.Parent]++
	}
	newID := make([]int, len(tasks))
	for i := range newID {
		newID[i] = -1
	}
	labelled := func(id int) bool { return id < 0 || newID[id] >= 0 }
	out := graph.New()
	lastChild := map[int]int{} // parent's new id → its last labelled child's ordinal
	for out.Len() < len(tasks) {
		best := -1
		for _, tk := range tasks {
			if newID[tk.ID] >= 0 || !labelled(tk.Parent) {
				continue
			}
			ok := true
			for _, d := range tk.Deps {
				ok = ok && labelled(d.Task)
			}
			if ok && (best < 0 || before(path[tk.ID], path[best])) {
				best = tk.ID
			}
		}
		tk := tasks[best]
		parent := -1
		if tk.Parent >= 0 {
			parent = newID[tk.Parent]
		}
		ord := path[best][len(path[best])-1]
		if last, seen := lastChild[parent]; seen && last > ord {
			t.Fatalf("task %d (%s) relabelled before an earlier sibling", best, tk.Name)
		}
		lastChild[parent] = ord
		tk.Parent = parent
		tk.Deps = append([]graph.Dep(nil), tk.Deps...)
		for i := range tk.Deps {
			tk.Deps[i].Task = newID[tk.Deps[i].Task]
		}
		newID[best] = out.Add(tk)
	}
	return out
}

// Two submission orders of one program must replay to one makespan: a
// nested task's id is when its parent's body happened to submit it, not a
// property of the program. Folds round-robin (every fold's first epoch,
// then every fold's second, ...) and fold after fold (a whole fold's
// subtree before the next fold) are both orders a real run can record.
func TestReplayIgnoresNestedSubmissionOrder(t *testing.T) {
	g := nestedCNNGraph(t)
	roundRobin := relabel(t, g, func(a, b []int) bool {
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for i := len(a) - 1; i >= 0; i-- {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	})
	foldAfterFold := relabel(t, g, func(a, b []int) bool {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return len(a) < len(b)
	})
	c := CTEPower(5)
	rr, err := ScheduleGraph(roundRobin, c)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := ScheduleGraph(foldAfterFold, c)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Makespan != ff.Makespan {
		t.Fatalf("makespan %v with folds round-robin, %v fold after fold", rr.Makespan, ff.Makespan)
	}
}
