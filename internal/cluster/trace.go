package cluster

import (
	"fmt"
	"sort"

	"taskml/internal/graph"
	"taskml/internal/trace"
)

// nodeInterval is one occupancy interval replayed on a node: either a final
// placement or a failed attempt.
type nodeInterval struct {
	task, attempt int // attempt -1 for the final (successful) placement
	name          string
	start, end    float64 // virtual seconds
	cores         int
	mode          string // failure mode for failed attempts, "" otherwise
}

// ChromeTrace renders the replayed schedule in Chrome trace-event format —
// the mirror of the real-execution exporter in internal/trace, so a run
// and its virtual replay open side-by-side in Perfetto. One trace process
// per node (rows are occupancy lanes packed within the node, lane count =
// the node's peak task concurrency), with failed attempts as "name!k"
// slices followed by a failure instant, and a busy-cores counter per node.
// Virtual seconds map to trace microseconds (1 virtual second = 1 displayed
// second), and the backoff gaps between a failure and the next attempt
// appear as idle space between the slices.
func (s *Schedule) ChromeTrace(g *graph.Graph) *trace.Trace {
	t := &trace.Trace{}
	failures := g.FailuresByTask()

	byNode := map[int][]nodeInterval{}
	addInterval := func(iv nodeInterval, node int) {
		if tk, ok := g.Task(iv.task); ok {
			iv.name = tk.Name
			iv.cores = tk.Cores
		}
		byNode[node] = append(byNode[node], iv)
	}
	for _, p := range s.Placements {
		addInterval(nodeInterval{task: p.Task, attempt: -1, start: p.Start, end: p.End}, p.Node)
	}
	for _, fa := range s.FailedAttempts {
		iv := nodeInterval{task: fa.Task, attempt: fa.Attempt, start: fa.Start, end: fa.End}
		for _, ev := range failures[fa.Task] {
			if ev.Attempt == fa.Attempt {
				iv.mode = ev.Mode
				break
			}
		}
		if iv.mode == "" {
			iv.mode = "error"
		}
		addInterval(iv, fa.Node)
	}

	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)

	type sortable struct {
		ev            trace.TraceEvent
		ord           int // E < i < C < B at equal ts
		task, attempt int
	}
	var out []sortable
	const usPerSec = 1e6

	for _, node := range nodes {
		ivs := byNode[node]
		sort.Slice(ivs, func(i, j int) bool {
			a, b := ivs[i], ivs[j]
			if a.start != b.start {
				return a.start < b.start
			}
			if a.task != b.task {
				return a.task < b.task
			}
			return a.attempt < b.attempt
		})
		starts := make([]float64, len(ivs))
		ends := make([]float64, len(ivs))
		for i, iv := range ivs {
			starts[i], ends[i] = iv.start, iv.end
		}
		lanes, nLanes := trace.PackLanes(starts, ends)
		t.Add(trace.TraceEvent{Name: "process_name", Ph: "M", Pid: node,
			Args: map[string]any{"name": fmt.Sprintf("node %d", node)}})
		for l := 0; l < nLanes; l++ {
			t.Add(trace.TraceEvent{Name: "thread_name", Ph: "M", Pid: node, Tid: l,
				Args: map[string]any{"name": fmt.Sprintf("lane %d", l)}})
		}

		// Per-node busy-cores counter: +cores at each slice start, −cores
		// at each end.
		type delta struct {
			at float64
			d  int
		}
		var deltas []delta
		for i, iv := range ivs {
			name := iv.name
			outcome := "ok"
			if iv.attempt >= 0 {
				name = fmt.Sprintf("%s!%d", iv.name, iv.attempt)
				outcome = iv.mode
			}
			args := map[string]any{"task": iv.task, "outcome": outcome, "cores": iv.cores}
			if iv.attempt >= 0 {
				args["attempt"] = iv.attempt
			}
			out = append(out,
				sortable{ord: 3, task: iv.task, attempt: iv.attempt, ev: trace.TraceEvent{
					Name: name, Cat: "task", Ph: "B", Ts: iv.start * usPerSec, Pid: node, Tid: lanes[i], Args: args,
				}},
				sortable{ord: 0, task: iv.task, attempt: iv.attempt, ev: trace.TraceEvent{
					Name: name, Cat: "task", Ph: "E", Ts: iv.end * usPerSec, Pid: node, Tid: lanes[i],
				}},
			)
			if iv.attempt >= 0 {
				iargs := map[string]any{"task": iv.task, "name": iv.name, "attempt": iv.attempt, "mode": iv.mode}
				out = append(out, sortable{ord: 1, task: iv.task, attempt: iv.attempt, ev: trace.TraceEvent{
					Name: "failure", Cat: "fault", Ph: "i", Ts: iv.end * usPerSec,
					Pid: node, Tid: lanes[i], Scope: "t", Args: iargs,
				}})
			}
			cores := iv.cores
			if cores < 1 {
				cores = 1
			}
			deltas = append(deltas, delta{iv.start, cores}, delta{iv.end, -cores})
		}
		sort.Slice(deltas, func(i, j int) bool {
			if deltas[i].at != deltas[j].at {
				return deltas[i].at < deltas[j].at
			}
			return deltas[i].d < deltas[j].d // releases before claims at ties
		})
		busy := 0
		for _, d := range deltas {
			busy += d.d
			out = append(out, sortable{ord: 2, ev: trace.TraceEvent{
				Name: "busy cores", Cat: "cluster", Ph: "C", Ts: d.at * usPerSec, Pid: node,
				Args: map[string]any{"n": busy},
			}})
		}
	}

	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ev.Ts != b.ev.Ts {
			return a.ev.Ts < b.ev.Ts
		}
		if a.ev.Pid != b.ev.Pid {
			return a.ev.Pid < b.ev.Pid
		}
		if a.ev.Tid != b.ev.Tid {
			return a.ev.Tid < b.ev.Tid
		}
		if a.ord != b.ord {
			return a.ord < b.ord
		}
		if a.task != b.task {
			return a.task < b.task
		}
		if a.attempt != b.attempt {
			return a.attempt < b.attempt
		}
		return a.ev.Name < b.ev.Name
	})
	for _, sv := range out {
		t.Add(sv.ev)
	}
	return t
}
