package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"taskml/internal/graph"
)

// faultyDiamond is the diamond with two retried tasks, one failed by an
// error and one by a panic.
func faultyDiamond() *graph.Graph {
	g := graph.New()
	src := g.Add(graph.Task{Name: "load", Parent: -1, Cost: 1, Cores: 1})
	a := g.Add(graph.Task{Name: "work", Parent: -1, Cost: 2, Cores: 1, Deps: []graph.Dep{{Task: src}}, Retries: 2, BackoffSec: 1})
	b := g.Add(graph.Task{Name: "work", Parent: -1, Cost: 2, Cores: 1, Deps: []graph.Dep{{Task: src}}, Retries: 1, BackoffSec: 1})
	g.Add(graph.Task{Name: "merge", Parent: -1, Cost: 1, Cores: 1, Deps: []graph.Dep{{Task: a}, {Task: b}}})
	g.RecordFailure(graph.FailureEvent{Task: a, Attempt: 0, Mode: "error", CostFraction: 0.5})
	g.RecordFailure(graph.FailureEvent{Task: b, Attempt: 0, Mode: "panic", CostFraction: 1})
	return g
}

func TestScheduleChromeTrace(t *testing.T) {
	g := faultyDiamond()
	s := mustSchedule(t, g, zeroOverhead(Homogeneous("c", 2, 1, 0)))
	tr := s.ChromeTrace(g)

	// Valid JSON in the object envelope.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	type row struct{ pid, tid int }
	depth := map[row]int{}
	names := map[string]int{}
	sawFailure, sawCounter := 0, 0
	for _, ev := range tr.Events {
		switch ev.Ph {
		case "B":
			depth[row{ev.Pid, ev.Tid}]++
			names[ev.Name]++
		case "E":
			depth[row{ev.Pid, ev.Tid}]--
			if depth[row{ev.Pid, ev.Tid}] < 0 {
				t.Fatalf("E before B on node %d lane %d at ts %v", ev.Pid, ev.Tid, ev.Ts)
			}
		case "i":
			if ev.Name != "failure" {
				t.Errorf("unexpected instant %q", ev.Name)
			}
			sawFailure++
			if ev.Scope != "t" {
				t.Errorf("instant %q missing thread scope", ev.Name)
			}
		case "C":
			sawCounter++
			if ev.Name != "busy cores" {
				t.Errorf("unexpected counter %q", ev.Name)
			}
			if n := ev.Args["n"].(int); n < 0 {
				t.Errorf("busy cores went negative: %d", n)
			}
		case "M":
			if ev.Name == "process_name" {
				if n := ev.Args["name"].(string); !strings.HasPrefix(n, "node ") {
					t.Errorf("process name %q", n)
				}
			}
		}
		if ev.Ts < 0 {
			t.Errorf("negative ts on %q", ev.Name)
		}
	}
	for r, d := range depth {
		if d != 0 {
			t.Errorf("node %d lane %d has %d unclosed slices", r.pid, r.tid, d)
		}
	}

	// Final placements for load, merge and both retried works; "!0" rows
	// for both failed first attempts.
	if names["load"] != 1 || names["merge"] != 1 || names["work"] != 2 {
		t.Errorf("final slices: %v", names)
	}
	if names["work!0"] != 2 {
		t.Errorf("failed-attempt slices: %v", names)
	}
	if sawFailure != 2 {
		t.Errorf("failure instants = %d, want 2", sawFailure)
	}
	if sawCounter == 0 {
		t.Error("no busy-cores samples")
	}
}

// TestChromeTraceBackoffGap pins the replay semantics the trace mirrors:
// the retried attempt's slice begins only after the failure instant plus
// the task's backoff, so the gap is visible in the rendered row.
func TestChromeTraceBackoffGap(t *testing.T) {
	g := graph.New()
	id := g.Add(graph.Task{Name: "w", Parent: -1, Cost: 2, Cores: 1, Retries: 1, BackoffSec: 3})
	g.RecordFailure(graph.FailureEvent{Task: id, Attempt: 0, Mode: "error", CostFraction: 0.5})
	s := mustSchedule(t, g, zeroOverhead(Homogeneous("c", 1, 1, 0)))
	tr := s.ChromeTrace(g)

	var failTs, retryStart float64
	for _, ev := range tr.Events {
		if ev.Ph == "i" && ev.Name == "failure" {
			failTs = ev.Ts
		}
		if ev.Ph == "B" && ev.Name == "w" {
			retryStart = ev.Ts
		}
	}
	// Failure at 1 virtual second (half the cost), backoff 3 s → the final
	// attempt starts at 4 s = 4e6 µs.
	if failTs != 1e6 || retryStart != 4e6 {
		t.Fatalf("failure at %v µs, retry start at %v µs; want 1e6 and 4e6", failTs, retryStart)
	}
}
