package graph

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// chain builds a linear chain of n unit-cost tasks.
func chain(n int) *Graph {
	g := New()
	prev := -1
	for i := 0; i < n; i++ {
		t := Task{Name: "step", Parent: -1, Cost: 1, Cores: 1}
		if prev >= 0 {
			t.Deps = []Dep{{Task: prev}}
		}
		prev = g.Add(t)
	}
	return g
}

func TestAddAssignsSequentialIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		id := g.Add(Task{Name: "t", Parent: -1, Cost: 1, Cores: 1})
		if id != i {
			t.Fatalf("Add returned %d, want %d", id, i)
		}
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
}

func TestTaskLookup(t *testing.T) {
	g := chain(3)
	tk, ok := g.Task(1)
	if !ok || tk.ID != 1 || len(tk.Deps) != 1 || tk.Deps[0].Task != 0 {
		t.Fatalf("Task(1) = %+v, ok=%v", tk, ok)
	}
	if _, ok := g.Task(99); ok {
		t.Fatal("Task(99) should not exist")
	}
	if _, ok := g.Task(-1); ok {
		t.Fatal("Task(-1) should not exist")
	}
}

func TestConcurrentAddIsSafeAndDense(t *testing.T) {
	g := New()
	var wg sync.WaitGroup
	const n = 200
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = g.Add(Task{Name: "t", Parent: -1, Cost: 1, Cores: 1})
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	if g.Len() != n {
		t.Fatalf("Len = %d, want %d", g.Len(), n)
	}
}

func TestValidateAcceptsChain(t *testing.T) {
	if err := chain(10).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsForwardDep(t *testing.T) {
	g := New()
	g.Add(Task{Name: "t", Parent: -1, Cost: 1, Cores: 1, Deps: []Dep{{Task: 0}}})
	if err := g.Validate(); err == nil {
		t.Fatal("want error for self/forward dependency")
	}
}

func TestValidateRejectsForwardParent(t *testing.T) {
	g := New()
	g.Add(Task{Name: "t", Parent: 3, Cost: 1, Cores: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("want error for forward parent")
	}
}

func TestValidateRejectsNoResources(t *testing.T) {
	g := New()
	g.Add(Task{Name: "t", Parent: -1, Cost: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("want error for zero resource demand")
	}
}

func TestValidateRejectsNegativeCost(t *testing.T) {
	g := New()
	g.Add(Task{Name: "t", Parent: -1, Cost: -1, Cores: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("want error for negative cost")
	}
}

func TestCriticalPathChain(t *testing.T) {
	if cp := chain(7).CriticalPath(); cp != 7 {
		t.Fatalf("CriticalPath = %v, want 7", cp)
	}
}

func TestCriticalPathFanOut(t *testing.T) {
	g := New()
	src := g.Add(Task{Name: "src", Parent: -1, Cost: 2, Cores: 1})
	var leaves []Dep
	for i := 0; i < 4; i++ {
		id := g.Add(Task{Name: "leaf", Parent: -1, Cost: 3, Cores: 1, Deps: []Dep{{Task: src}}})
		leaves = append(leaves, Dep{Task: id})
	}
	g.Add(Task{Name: "sink", Parent: -1, Cost: 1, Cores: 1, Deps: leaves})
	if cp := g.CriticalPath(); cp != 6 {
		t.Fatalf("CriticalPath = %v, want 6", cp)
	}
}

func TestCriticalPathNesting(t *testing.T) {
	g := New()
	p := g.Add(Task{Name: "parent", Parent: -1, Cost: 1, Cores: 1})
	// Children submitted inside the parent: chain of two, each cost 5.
	c1 := g.Add(Task{Name: "child", Parent: p, Cost: 5, Cores: 1})
	g.Add(Task{Name: "child", Parent: p, Cost: 5, Cores: 1, Deps: []Dep{{Task: c1}}})
	// A dependent of the parent waits for the whole subtree.
	g.Add(Task{Name: "after", Parent: -1, Cost: 1, Cores: 1, Deps: []Dep{{Task: p}}})
	if cp := g.CriticalPath(); cp != 11 {
		t.Fatalf("CriticalPath = %v, want 11 (children dominate parent)", cp)
	}
}

func TestCriticalPathDependentSubmittedBeforeDepChildren(t *testing.T) {
	// Main submits parent P, then a task depending on P, and only afterwards
	// P's children get recorded (they were created while P ran). The
	// dependent must still wait for the children.
	g := New()
	p := g.Add(Task{Name: "p", Parent: -1, Cost: 1, Cores: 1})
	g.Add(Task{Name: "after", Parent: -1, Cost: 1, Cores: 1, Deps: []Dep{{Task: p}}})
	g.Add(Task{Name: "child", Parent: p, Cost: 10, Cores: 1})
	if cp := g.CriticalPath(); cp != 11 {
		t.Fatalf("CriticalPath = %v, want 11", cp)
	}
}

func TestTotalCost(t *testing.T) {
	if tc := chain(4).TotalCost(); tc != 4 {
		t.Fatalf("TotalCost = %v, want 4", tc)
	}
}

func TestMaxWidth(t *testing.T) {
	g := New()
	src := g.Add(Task{Name: "src", Parent: -1, Cost: 1, Cores: 1})
	for i := 0; i < 5; i++ {
		g.Add(Task{Name: "leaf", Parent: -1, Cost: 1, Cores: 1, Deps: []Dep{{Task: src}}})
	}
	if w := g.MaxWidth(); w != 5 {
		t.Fatalf("MaxWidth = %d, want 5", w)
	}
	if w := chain(3).MaxWidth(); w != 1 {
		t.Fatalf("MaxWidth(chain) = %d, want 1", w)
	}
}

// Property: CriticalPath <= TotalCost for any random well-formed DAG, and
// CriticalPath >= max single task cost.
func TestCriticalPathBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + rng.Intn(30)
		maxCost := 0.0
		for i := 0; i < n; i++ {
			cost := rng.Float64() * 10
			if cost > maxCost {
				maxCost = cost
			}
			tk := Task{Name: "t", Parent: -1, Cost: cost, Cores: 1}
			for d := 0; d < i; d++ {
				if rng.Float64() < 0.2 {
					tk.Deps = append(tk.Deps, Dep{Task: d})
				}
			}
			g.Add(tk)
		}
		cp := g.CriticalPath()
		return cp <= g.TotalCost()+1e-9 && cp >= maxCost-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDOTStructure(t *testing.T) {
	g := New()
	p := g.Add(Task{Name: "fold", Parent: -1, Cost: 1, Cores: 1})
	c := g.Add(Task{Name: "train", Parent: p, Cost: 1, Cores: 1})
	g.Add(Task{Name: "merge", Parent: -1, Cost: 1, Cores: 1, Deps: []Dep{{Task: c, ViaMaster: true}}})
	dot := g.DOT("cnn")
	for _, want := range []string{
		"digraph \"cnn\"",
		"subgraph cluster_t0",     // nesting cluster for the fold task
		"t2 -> t1 [style=dashed]", // via-master edge is dashed; nested train numbers after merge
		"cluster_legend",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// TestDOTIgnoresNestedSubmissionOrder: two parents whose bodies submit the
// same children, recorded once round-robin and once parent after parent,
// render to one DOT. Which body submitted first is thread timing, not the
// program.
func TestDOTIgnoresNestedSubmissionOrder(t *testing.T) {
	record := func(roundRobin bool) string {
		g := New()
		parents := []int{
			g.Add(Task{Name: "fold", Parent: -1, Cost: 1, Cores: 1}),
			g.Add(Task{Name: "fold", Parent: -1, Cost: 1, Cores: 1}),
		}
		prev := map[int]int{}
		child := func(p int, name string) {
			tk := Task{Name: name, Parent: p, Cost: 1, Cores: 1}
			if d, ok := prev[p]; ok {
				tk.Deps = []Dep{{Task: d}}
			}
			prev[p] = g.Add(tk)
		}
		names := []string{"init", "train", "merge"}
		if roundRobin {
			for _, name := range names {
				for _, p := range parents {
					child(p, name)
				}
			}
		} else {
			for _, p := range parents {
				for _, name := range names {
					child(p, name)
				}
			}
		}
		g.Add(Task{Name: "eval", Parent: -1, Cost: 1, Cores: 1, Deps: []Dep{{Task: prev[0]}, {Task: prev[1]}}})
		return g.DOT("nested")
	}
	if rr, ff := record(true), record(false); rr != ff {
		t.Fatalf("round-robin and parent-after-parent records render differently:\n%s\n%s", rr, ff)
	}
}

func TestCountByName(t *testing.T) {
	g := New()
	g.Add(Task{Name: "a", Parent: -1, Cost: 1, Cores: 1})
	g.Add(Task{Name: "a", Parent: -1, Cost: 1, Cores: 1})
	g.Add(Task{Name: "b", Parent: -1, Cost: 1, Cores: 1})
	counts := g.CountByName()
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Fatalf("CountByName = %v", counts)
	}
}

func TestCriticalPathEmptyGraph(t *testing.T) {
	if cp := New().CriticalPath(); cp != 0 {
		t.Fatalf("CriticalPath(empty) = %v, want 0", cp)
	}
	if math.IsNaN(New().TotalCost()) || New().TotalCost() != 0 {
		t.Fatal("TotalCost(empty) must be 0")
	}
}

func TestScaledMultipliesCostsAndBytes(t *testing.T) {
	g := New()
	a := g.Add(Task{Name: "a", Parent: -1, Cost: 2, Cores: 1, OutBytes: 100})
	g.Add(Task{Name: "b", Parent: -1, Cost: 3, Cores: 2, OutBytes: 10, Deps: []Dep{{Task: a, ViaMaster: true}}})
	s := g.Scaled(10, 5)
	if s.Len() != 2 {
		t.Fatalf("scaled graph has %d tasks", s.Len())
	}
	ta, _ := s.Task(0)
	tb, _ := s.Task(1)
	if ta.Cost != 20 || ta.OutBytes != 500 || tb.Cost != 30 || tb.OutBytes != 50 {
		t.Fatalf("scaled tasks: %+v, %+v", ta, tb)
	}
	// Structure preserved, original untouched.
	if len(tb.Deps) != 1 || !tb.Deps[0].ViaMaster || tb.Cores != 2 {
		t.Fatalf("structure lost: %+v", tb)
	}
	orig, _ := g.Task(0)
	if orig.Cost != 2 || orig.OutBytes != 100 {
		t.Fatal("Scaled mutated the source graph")
	}
	if s.CriticalPath() != 10*g.CriticalPath() {
		t.Fatal("critical path must scale linearly with cost")
	}
}

func TestFailureEventsAndAttempts(t *testing.T) {
	g := chain(3)
	g.RecordFailure(FailureEvent{Task: 1, Attempt: 0, Mode: "error", CostFraction: 0.5})
	g.RecordFailure(FailureEvent{Task: 1, Attempt: 1, Mode: "timeout", CostFraction: 1})
	g.RecordFailure(FailureEvent{Task: 2, Attempt: 0, Mode: "panic", CostFraction: 0.25})
	if err := g.Validate(); err != nil {
		t.Fatalf("valid failure events rejected: %v", err)
	}
	if got := len(g.FailureEvents()); got != 3 {
		t.Fatalf("FailureEvents returned %d events, want 3", got)
	}
	by := g.FailuresByTask()
	if len(by[1]) != 2 || by[1][0].Attempt != 0 || by[1][1].Attempt != 1 {
		t.Fatalf("FailuresByTask[1] = %+v", by[1])
	}
	if g.Attempts(0) != 1 || g.Attempts(1) != 3 || g.Attempts(2) != 2 {
		t.Fatalf("Attempts = %d,%d,%d; want 1,3,2",
			g.Attempts(0), g.Attempts(1), g.Attempts(2))
	}
}

func TestRecordFailureClampsFraction(t *testing.T) {
	g := chain(1)
	g.RecordFailure(FailureEvent{Task: 0, Attempt: 0, Mode: "error", CostFraction: math.NaN()})
	g.RecordFailure(FailureEvent{Task: 0, Attempt: 1, Mode: "error", CostFraction: -2})
	for _, ev := range g.FailureEvents() {
		if ev.CostFraction != 1 {
			t.Fatalf("unclamped fraction %v in %+v", ev.CostFraction, ev)
		}
	}
}

func TestScaledPreservesFailuresWithoutScalingBackoff(t *testing.T) {
	g := New()
	g.Add(Task{Name: "a", Parent: -1, Cost: 2, Cores: 1, Retries: 2, BackoffSec: 5})
	g.RecordFailure(FailureEvent{Task: 0, Attempt: 0, Mode: "error", CostFraction: 0.5})
	s := g.Scaled(10, 1)
	if len(s.FailureEvents()) != 1 {
		t.Fatal("Scaled dropped failure events")
	}
	ts, _ := s.Task(0)
	if ts.Retries != 2 || ts.BackoffSec != 5 {
		t.Fatalf("Scaled altered retry policy: %+v (backoff is policy, not workload)", ts)
	}
}

func TestWithoutFailuresStripsEvents(t *testing.T) {
	g := chain(2)
	g.RecordFailure(FailureEvent{Task: 0, Attempt: 0, Mode: "error", CostFraction: 1})
	clean := g.WithoutFailures()
	if clean.Len() != g.Len() {
		t.Fatal("WithoutFailures changed the task set")
	}
	if len(clean.FailureEvents()) != 0 {
		t.Fatal("WithoutFailures kept failure state")
	}
	if len(g.FailureEvents()) != 1 {
		t.Fatal("WithoutFailures mutated the source graph")
	}
}

func TestOccurrenceCountsSameNamedRecords(t *testing.T) {
	g := New()
	x0 := g.Add(Task{Name: "x", Parent: -1, Cost: 1, Cores: 1})
	y0 := g.Add(Task{Name: "y", Parent: -1, Cost: 1, Cores: 1})
	x1 := g.Add(Task{Name: "x", Parent: -1, Cost: 1, Cores: 1})
	if o0, o1, o2 := g.Occurrence(x0), g.Occurrence(y0), g.Occurrence(x1); o0 != 0 || o1 != 0 || o2 != 1 {
		t.Fatalf("occurrences = %d,%d,%d; want 0,0,1", o0, o1, o2)
	}
	if o := g.Occurrence(-2); o != -1 {
		t.Fatalf("Occurrence(-2) = %d, want -1", o)
	}
}

func TestValidateRejectsBadFailureState(t *testing.T) {
	cases := []struct {
		name string
		prep func(*Graph)
	}{
		{"event task out of range", func(g *Graph) {
			g.RecordFailure(FailureEvent{Task: 99, Attempt: 0, Mode: "error", CostFraction: 1})
		}},
		{"negative attempt", func(g *Graph) {
			g.RecordFailure(FailureEvent{Task: 0, Attempt: -1, Mode: "error", CostFraction: 1})
		}},
	}
	for _, c := range cases {
		g := chain(2)
		c.prep(g)
		if err := g.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted invalid failure state", c.name)
		}
	}
	g := New()
	g.Add(Task{Name: "a", Parent: -1, Cost: 1, Cores: 1, Retries: -1})
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted negative Retries")
	}
	g2 := New()
	g2.Add(Task{Name: "a", Parent: -1, Cost: 1, Cores: 1, BackoffSec: math.NaN()})
	if err := g2.Validate(); err == nil {
		t.Fatal("Validate accepted NaN BackoffSec")
	}
}
