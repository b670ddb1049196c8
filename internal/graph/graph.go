package graph

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Dep is a dependency on the output of another task.
type Dep struct {
	// Task is the ID of the producing task.
	Task int
	// ViaMaster marks dependencies introduced by a synchronisation in the
	// submitting program (a Future.Get followed by later submissions). The
	// data makes an extra hop through the master process, which the
	// scheduler charges as an additional transfer.
	ViaMaster bool
	// OrderOnly marks synchronisation-ordering dependencies that carry no
	// data of their own: the consumer merely cannot start before the
	// producer's value reached the master. The scheduler delays the
	// consumer by the producer→master hop but moves no bytes (the value
	// travelled once; ordering does not re-send it).
	OrderOnly bool
}

// Task is one node of the captured graph.
type Task struct {
	// ID is the submission order, unique and monotonically increasing.
	ID int
	// Name groups tasks of the same kind (e.g. "svc_fit", "merge_sv"); the
	// DOT export colors nodes by Name like the PyCOMPSs graphs in the paper.
	Name string
	// Parent is the ID of the task whose body submitted this task (nesting),
	// or -1 for tasks submitted by the main program.
	Parent int
	// Deps lists data dependencies.
	Deps []Dep
	// Cost is the task's virtual duration in seconds on a reference core
	// (or reference GPU when GPUs > 0).
	Cost float64
	// Cores and GPUs are the resource demand. Cores defaults to 1 for
	// compute tasks; a GPU task may also pin cores.
	Cores, GPUs int
	// OutBytes is the size of the task's output, used for transfer costs.
	OutBytes int64
	// Retries is the task's retry budget as resolved at submission (runtime
	// defaults and policy applied). Informational for the replay: the
	// attempts actually taken live in the failure events.
	Retries int
	// BackoffSec is the virtual backoff base between a failed attempt and
	// its retry: the retry after failed attempt k (0-based) re-queues
	// BackoffSec·2^k after the failure instant, so the first retry waits
	// the base. A policy parameter, deliberately left untouched by Scaled.
	BackoffSec float64
}

// FailureEvent records one failed attempt of a task, as observed by the
// runtime. The replay in internal/cluster charges the failed attempt
// CostFraction of the task's cost on the node it was placed on, then
// re-queues the task after its backoff.
type FailureEvent struct {
	// Task is the ID of the failing task.
	Task int
	// Attempt is the 0-based attempt index that failed.
	Attempt int
	// Mode is how the attempt died: "error" or "panic" (any string replays).
	Mode string
	// CostFraction is the fraction of the task's virtual cost consumed
	// before the failure instant, in [0, 1].
	CostFraction float64
	// At is the real (wall-clock) instant the runtime observed the failure,
	// carrying Go's monotonic reading. Purely informational — the replay
	// works in virtual time — it lets trace exporters cross-reference a
	// replayed failure with the same failure in the real-execution trace.
	// Zero for hand-built graphs.
	At time.Time
}

// Graph is an append-only record of submitted tasks. It is safe for
// concurrent use: nested tasks submit from worker goroutines.
type Graph struct {
	mu        sync.Mutex
	tasks     []Task
	nameCount map[string]int
	failures  []FailureEvent
	degraded  map[int]bool
}

// New returns an empty graph. The task slice starts with room for a small
// workflow: Task is a wide struct, so growing from zero capacity through
// repeated doubling re-copies every record several times and leaves the
// abandoned arrays to the garbage collector — measurable on the submit hot
// path.
func New() *Graph { return &Graph{tasks: make([]Task, 0, 128)} }

// Add appends a task and returns its assigned ID.
func (g *Graph) Add(t Task) int {
	id, _ := g.AddCounted(t)
	return id
}

// Append appends *t (by copy) without maintaining the per-name occurrence
// counter. Submitters that never consult occurrence indices (no fault plan
// to match against) use it to skip the map work on the hot path; the
// pointer parameter spares a second copy of the wide struct. Mixing Append
// with AddCounted on one graph skews the indices AddCounted hands out, so
// a graph should stick to one of the two.
func (g *Graph) Append(t *Task) int {
	g.mu.Lock()
	id := len(g.tasks)
	g.tasks = append(g.tasks, *t)
	g.tasks[id].ID = id
	g.mu.Unlock()
	return id
}

// AddCounted appends a task and returns its assigned ID together with its
// occurrence index among same-named tasks (0 for the first "svc_fit", 1 for
// the second, ...). Both are assigned under one lock, so the occurrence
// order always matches graph-ID order — what fault plans match against.
func (g *Graph) AddCounted(t Task) (id, occ int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t.ID = len(g.tasks)
	g.tasks = append(g.tasks, t)
	if g.nameCount == nil {
		g.nameCount = map[string]int{}
	}
	occ = g.nameCount[t.Name]
	g.nameCount[t.Name] = occ + 1
	return t.ID, occ
}

// RecordFailure appends a failed-attempt event. CostFraction is clamped to
// [0, 1]; non-finite values become 1 (full cost charged).
func (g *Graph) RecordFailure(ev FailureEvent) {
	if !(ev.CostFraction >= 0 && ev.CostFraction <= 1) {
		ev.CostFraction = 1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failures = append(g.failures, ev)
}

// FailureEvents returns a snapshot of all recorded failed attempts, in
// record order.
func (g *Graph) FailureEvents() []FailureEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]FailureEvent, len(g.failures))
	copy(out, g.failures)
	return out
}

// FailuresByTask groups the failure events by task ID, each slice sorted by
// attempt — the shape the virtual-cluster replay consumes.
func (g *Graph) FailuresByTask() map[int][]FailureEvent {
	out := map[int][]FailureEvent{}
	for _, ev := range g.FailureEvents() {
		out[ev.Task] = append(out[ev.Task], ev)
	}
	for _, evs := range out {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Attempt < evs[j].Attempt })
	}
	return out
}

// MarkDegraded records that a task exhausted its attempts and published its
// declared fallback instead of a computed value.
func (g *Graph) MarkDegraded(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.degraded == nil {
		g.degraded = map[int]bool{}
	}
	g.degraded[id] = true
}

// IsDegraded reports whether the task's published value is its fallback.
func (g *Graph) IsDegraded(id int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.degraded[id]
}

// DegradedTasks returns the IDs of degraded tasks in ascending order.
func (g *Graph) DegradedTasks() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, len(g.degraded))
	for id := range g.degraded {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Attempts returns how many attempts the task took: failed attempts plus
// the final successful one — or failed attempts alone when the task
// degraded (its fallback stood in; nothing succeeded).
func (g *Graph) Attempts(id int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, ev := range g.failures {
		if ev.Task == id {
			n++
		}
	}
	if g.degraded[id] {
		return n
	}
	return n + 1
}

// WithoutFailures returns a copy of the graph with the same tasks but no
// failure events or degraded marks — the fault-free baseline a faulty
// replay is compared against (cmd/scaling -faults).
func (g *Graph) WithoutFailures() *Graph {
	out := New()
	for _, t := range g.Tasks() {
		deps := make([]Dep, len(t.Deps))
		copy(deps, t.Deps)
		t.Deps = deps
		out.Add(t)
	}
	return out
}

// Len returns the number of captured tasks.
func (g *Graph) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.tasks)
}

// Tasks returns a snapshot copy of the captured tasks in submission order.
func (g *Graph) Tasks() []Task {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Task, len(g.tasks))
	copy(out, g.tasks)
	return out
}

// Task returns the captured task with the given ID.
func (g *Graph) Task(id int) (Task, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.tasks) {
		return Task{}, false
	}
	return g.tasks[id], true
}

// Validate checks structural invariants: dependency and parent IDs must
// reference earlier tasks (the graph is a DAG by construction of submission
// order), resource demands must be positive, and costs must sum to a finite
// total (Export writes it, and JSON has no infinity).
func (g *Graph) Validate() error {
	var total float64
	for _, t := range g.Tasks() {
		if t.Parent >= t.ID {
			return fmt.Errorf("graph: task %d has parent %d not submitted before it", t.ID, t.Parent)
		}
		for _, d := range t.Deps {
			if d.Task < 0 || d.Task >= t.ID {
				return fmt.Errorf("graph: task %d depends on %d, not submitted before it", t.ID, d.Task)
			}
		}
		if t.Cores < 0 || t.GPUs < 0 {
			return fmt.Errorf("graph: task %d has negative resource demand", t.ID)
		}
		if t.Cores == 0 && t.GPUs == 0 {
			return fmt.Errorf("graph: task %d demands no resources", t.ID)
		}
		if t.Cost < 0 {
			return fmt.Errorf("graph: task %d has negative cost", t.ID)
		}
		if total += t.Cost; math.IsInf(total, 1) {
			return fmt.Errorf("graph: costs up to task %d sum past the largest float", t.ID)
		}
		if t.Retries < 0 {
			return fmt.Errorf("graph: task %d has negative retry budget", t.ID)
		}
		if t.BackoffSec < 0 || t.BackoffSec != t.BackoffSec {
			return fmt.Errorf("graph: task %d has invalid backoff %v", t.ID, t.BackoffSec)
		}
	}
	n := g.Len()
	for _, ev := range g.FailureEvents() {
		if ev.Task < 0 || ev.Task >= n {
			return fmt.Errorf("graph: failure event references unknown task %d", ev.Task)
		}
		if ev.Attempt < 0 {
			return fmt.Errorf("graph: failure event for task %d has negative attempt", ev.Task)
		}
		if !(ev.CostFraction >= 0 && ev.CostFraction <= 1) {
			return fmt.Errorf("graph: failure event for task %d has cost fraction %v outside [0,1]", ev.Task, ev.CostFraction)
		}
	}
	for _, id := range g.DegradedTasks() {
		if id < 0 || id >= n {
			return fmt.Errorf("graph: degraded mark references unknown task %d", id)
		}
	}
	return nil
}

// CriticalPath returns the length, in cost-seconds, of the longest
// dependency chain, ignoring resource limits and transfers. No schedule on
// any finite cluster can beat it; internal/cluster tests assert
// makespan >= CriticalPath.
//
// Nesting is honoured: a child cannot start before its parent starts, and a
// parent does not complete (for its dependents) until all descendants do.
func (g *Graph) CriticalPath() float64 {
	tasks := g.Tasks()
	n := len(tasks)
	children := make([][]int, n)
	for _, t := range tasks {
		if t.Parent >= 0 {
			children[t.Parent] = append(children[t.Parent], t.ID)
		}
	}
	// start(t) = max(start(parent), fin(dep)...)
	// fin(t)   = max(start(t)+cost, fin(child)...)
	// The mutual recursion is acyclic because the runtime cannot create a
	// task that depends on the future of one of its own ancestors; memoise
	// both quantities.
	start := make([]float64, n)
	fin := make([]float64, n)
	haveStart := make([]bool, n)
	haveFin := make([]bool, n)
	var startOf, finOf func(i int) float64
	startOf = func(i int) float64 {
		if haveStart[i] {
			return start[i]
		}
		haveStart[i] = true // pre-mark: defensive against malformed cycles
		t := tasks[i]
		s := 0.0
		if t.Parent >= 0 {
			s = startOf(t.Parent)
		}
		for _, d := range t.Deps {
			if f := finOf(d.Task); f > s {
				s = f
			}
		}
		start[i] = s
		return s
	}
	finOf = func(i int) float64 {
		if haveFin[i] {
			return fin[i]
		}
		haveFin[i] = true
		f := startOf(i) + tasks[i].Cost
		for _, c := range children[i] {
			if cf := finOf(c); cf > f {
				f = cf
			}
		}
		fin[i] = f
		return f
	}
	var cp float64
	for i := range tasks {
		if f := finOf(i); f > cp {
			cp = f
		}
	}
	return cp
}

// TotalCost returns the sum of all task costs (the sequential work).
func (g *Graph) TotalCost() float64 {
	var s float64
	for _, t := range g.Tasks() {
		s += t.Cost
	}
	return s
}

// MaxWidth returns an upper bound on usable parallelism: the maximum number
// of tasks whose dependency depth is equal (levels of the DAG).
func (g *Graph) MaxWidth() int {
	tasks := g.Tasks()
	depth := make([]int, len(tasks))
	counts := map[int]int{}
	width := 0
	for i, t := range tasks {
		d := 0
		if t.Parent >= 0 && depth[t.Parent]+1 > d {
			d = depth[t.Parent] + 1
		}
		for _, dep := range t.Deps {
			if depth[dep.Task]+1 > d {
				d = depth[dep.Task] + 1
			}
		}
		depth[i] = d
		counts[d]++
		if counts[d] > width {
			width = counts[d]
		}
	}
	return width
}

// dotPalette mirrors the multi-color task circles of the paper's PyCOMPSs
// execution graphs (Figures 4, 6, 8, 9, 10): each task name gets a stable
// color.
var dotPalette = []string{
	"#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
	"#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac",
}

// DOT renders the captured graph in Graphviz format, one node per task,
// colored by task name, with nested tasks grouped in subgraph clusters —
// the same visual structure as the execution graphs in the paper.
func (g *Graph) DOT(title string) string {
	tasks := g.Tasks()
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=TB;\n  node [style=filled, shape=circle, fontsize=9];\n")

	colorOf := map[string]string{}
	var names []string
	for _, t := range tasks {
		if _, ok := colorOf[t.Name]; !ok {
			colorOf[t.Name] = dotPalette[len(colorOf)%len(dotPalette)]
			names = append(names, t.Name)
		}
	}

	children := map[int][]int{}
	var top []int
	for _, t := range tasks {
		if t.Parent >= 0 {
			children[t.Parent] = append(children[t.Parent], t.ID)
		} else {
			top = append(top, t.ID)
		}
	}

	var emit func(indent string, ids []int)
	emit = func(indent string, ids []int) {
		for _, id := range ids {
			t := tasks[id]
			fmt.Fprintf(&b, "%st%d [label=%q, fillcolor=%q];\n", indent, id, fmt.Sprintf("%d", id), colorOf[t.Name])
			if kids := children[id]; len(kids) > 0 {
				fmt.Fprintf(&b, "%ssubgraph cluster_t%d {\n%s  label=%q; style=dashed;\n", indent, id, indent, t.Name)
				emit(indent+"  ", kids)
				fmt.Fprintf(&b, "%s}\n", indent)
			}
		}
	}
	emit("  ", top)
	for _, t := range tasks {
		for _, d := range t.Deps {
			style := ""
			if d.ViaMaster {
				style = " [style=dashed]"
			}
			fmt.Fprintf(&b, "  t%d -> t%d%s;\n", d.Task, t.ID, style)
		}
	}
	// Legend.
	b.WriteString("  subgraph cluster_legend {\n    label=\"tasks\"; style=solid;\n")
	sort.Strings(names)
	for i, n := range names {
		fmt.Fprintf(&b, "    legend%d [label=%q, shape=box, fillcolor=%q];\n", i, n, colorOf[n])
	}
	b.WriteString("  }\n}\n")
	return b.String()
}

// Scaled returns a copy of the graph with every task's cost multiplied by
// costF and its output size by bytesF. The experiment harness uses it to
// emulate paper-scale payloads: the captured graph's *structure* comes from
// a laptop-scale run, while per-task work and data sizes are rescaled to
// the ratios of the paper's dataset (EXPERIMENTS.md derives the factors).
// Failure events and degraded marks carry over unchanged; BackoffSec is a
// retry policy parameter, not workload, and is not scaled.
func (g *Graph) Scaled(costF, bytesF float64) *Graph {
	out := New()
	for _, t := range g.Tasks() {
		t.Cost *= costF
		t.OutBytes = int64(float64(t.OutBytes) * bytesF)
		deps := make([]Dep, len(t.Deps))
		copy(deps, t.Deps)
		t.Deps = deps
		out.Add(t)
	}
	for _, ev := range g.FailureEvents() {
		out.RecordFailure(ev)
	}
	for _, id := range g.DegradedTasks() {
		out.MarkDegraded(id)
	}
	return out
}

// CountByName returns how many tasks of each name the graph contains —
// handy for asserting workflow shapes in tests ("one svc_fit per row block").
func (g *Graph) CountByName() map[string]int {
	out := map[string]int{}
	for _, t := range g.Tasks() {
		out[t.Name]++
	}
	return out
}
