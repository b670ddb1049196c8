package trace_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taskml/internal/compss"
	"taskml/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden trace file")

// chainTrace runs the reference workflow the golden file captures: a
// three-task chain on one worker, where the middle task loses its first
// attempt to an injected fault and recovers, and the last task loses every
// attempt and fails. One worker plus strict
// chaining makes the event stream — and therefore the exported trace
// shape — fully deterministic; the ~1 ms bodies keep successive events on
// distinct clock readings.
func chainTrace(t *testing.T) *trace.Trace {
	t.Helper()
	col := trace.NewCollector()
	rt := compss.New(compss.Config{
		Workers:   1,
		Observers: []compss.Observer{col},
		Faults: &compss.FaultPlan{Faults: []compss.Fault{
			{Name: "flaky", Nth: -1, Attempts: 1, Mode: compss.FaultError},
			{Name: "doomed", Nth: -1, Attempts: -1, Mode: compss.FaultError},
		}},
	})
	body := func(_ *compss.TaskCtx, _ []any) (any, error) {
		time.Sleep(time.Millisecond)
		return 1, nil
	}
	a := rt.Submit(compss.Opts{Name: "steady"}, body)
	b := rt.Submit(compss.Opts{Name: "flaky", Retries: 1}, body, a)
	c := rt.Submit(compss.Opts{Name: "doomed", Retries: 1}, body, b)
	if _, err := rt.Get(c); !errors.Is(err, compss.ErrInjectedFault) {
		t.Fatalf("Get(doomed) = %v, want its injected fault", err)
	}
	if err := rt.Barrier(); !errors.Is(err, compss.ErrInjectedFault) {
		t.Fatalf("Barrier = %v, want doomed's injected fault", err)
	}
	return col.Chrome()
}

// normalize strips the wall-clock content from an encoded trace: ts values
// depend on real scheduling, so the golden comparison covers event count,
// order, phases, rows, names and args — the shape — only.
func normalize(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	for _, ev := range doc.TraceEvents {
		delete(ev, "ts")
		if args, ok := ev["args"].(map[string]any); ok {
			delete(args, "err") // error strings carry task IDs already asserted elsewhere
		}
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := chainTrace(t).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := normalize(t, buf.Bytes())

	golden := filepath.Join("testdata", "chain_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test ./internal/trace -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace shape diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestChromeTraceWellFormed asserts the structural invariants Perfetto
// needs, independent of the golden file: every B has a matching E on its
// row in order, instants carry the thread scope, and counters never go
// negative.
func TestChromeTraceWellFormed(t *testing.T) {
	tr := chainTrace(t)
	depth := map[int]int{}
	kinds := map[string]int{}
	for _, ev := range tr.Events {
		kinds[ev.Ph]++
		switch ev.Ph {
		case "B":
			depth[ev.Tid]++
		case "E":
			depth[ev.Tid]--
			if depth[ev.Tid] < 0 {
				t.Fatalf("E without B on row %d", ev.Tid)
			}
		case "i":
			if ev.Scope != "t" {
				t.Errorf("instant %q missing thread scope", ev.Name)
			}
		case "C":
			if n, ok := ev.Args["n"].(int); !ok || n < 0 {
				t.Errorf("counter %q has invalid value %v", ev.Name, ev.Args["n"])
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("row %d has %d unclosed slices", tid, d)
		}
	}
	// steady ok + flaky!0 + flaky ok + doomed!0 + doomed!1 = 5 attempts.
	if kinds["B"] != 5 || kinds["E"] != 5 {
		t.Errorf("attempt slices = %d/%d, want 5/5", kinds["B"], kinds["E"])
	}
	// failures: flaky!0, doomed!0, doomed!1; retries: flaky#1, doomed#1.
	if kinds["i"] != 5 {
		t.Errorf("instants = %d, want 5", kinds["i"])
	}
	if kinds["C"] == 0 {
		t.Error("no counter samples emitted")
	}
}
