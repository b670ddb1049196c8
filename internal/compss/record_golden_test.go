package compss

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taskml/internal/graph"
)

var update = flag.Bool("update", false, "rewrite ../graph/testdata/record.golden")

// recordGolden is the file TestRecordGolden compares against. It sits
// beside the graph package it pins, though a real runtime writes it.
var recordGolden = filepath.Join("..", "graph", "testdata", "record.golden")

// recordedWorkflow submits, from Main() alone, a fan-out, a chain and a
// reduction tree: 398 tasks, so the record spans four chunks of the graph's
// store. Gets between the shapes put ViaMaster and OrderOnly edges into the
// record. Each Get awaits a task submitted after the previous Get, so the
// sync floor never holds more than one id and the order of every task's deps
// is fixed. Ids follow submission order, so the whole record is
// deterministic however the two workers interleave.
func recordedWorkflow(t *testing.T) *graph.Graph {
	t.Helper()
	rt := New(Config{Workers: 2, DefaultRetries: 1, DefaultBackoff: 0.5})
	body := constTask(1)
	get := func(f *Future) {
		t.Helper()
		if _, err := rt.Get(f); err != nil {
			t.Fatal(err)
		}
	}

	src := rt.Submit(Opts{Name: "load", Cost: 2, OutBytes: 1 << 20}, body)
	fan := make([]*Future, 140)
	for i := range fan {
		o := Opts{Name: "fan", Cost: 0.25 * float64(1+i%5), OutBytes: int64(64 * (1 + i%3))}
		if i%9 == 0 {
			o.Cores = 2
		}
		if i%31 == 0 {
			o.GPUs, o.Retries, o.Backoff = 1, 3, 2
		}
		fan[i] = rt.Submit(o, body, src)
	}
	get(fan[70])

	// The first link takes the synchronised fan[70] as its argument
	// (ViaMaster); every later submission carries the floor as OrderOnly
	// until the mid-chain Get moves it.
	link := fan[70]
	var links []*Future
	for i := 0; i < 130; i++ {
		o := Opts{Name: "link", Cost: 0.5 + float64(i%4)*0.125, OutBytes: 128}
		if i%17 == 0 {
			o.Retries = -1
		}
		link = rt.Submit(o, body, link, fan[i%len(fan)])
		links = append(links, link)
		if i == 64 {
			get(link)
		}
	}

	// A reduction tree over 64 leaves, each reading one link (the synced
	// links[64] among them, ViaMaster), merged pairwise down to one root.
	level := make([]*Future, 64)
	for i := range level {
		level[i] = rt.Submit(Opts{Name: "leaf", Cost: 1, OutBytes: 256}, body, links[i*2])
	}
	for len(level) > 1 {
		next := make([]*Future, 0, len(level)/2)
		for i := 0; i < len(level); i += 2 {
			next = append(next, rt.Submit(Opts{Name: "merge", Cost: 0.75, Cores: 2, OutBytes: 256}, body, level[i], level[i+1]))
		}
		level = next
	}
	get(level[0])
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	return rt.Graph()
}

// faultyWorkflow runs under a fault plan, which picks a task by its
// occurrence among same-named records, and records failed attempts: a fan
// of 140 tasks, two chunks, with every "flaky" losing its first attempt and
// the 130th "work" task panicking twice before it succeeds.
func faultyWorkflow(t *testing.T) *graph.Graph {
	t.Helper()
	rt := New(Config{Workers: 2, DefaultRetries: 2, Faults: &FaultPlan{Faults: []Fault{
		{Name: "flaky", Nth: -1, Attempts: 1, Mode: FaultError},
		{Name: "work", Nth: 129, Attempts: 2, Mode: FaultPanic, AtFraction: 0.25},
	}}})
	body := constTask(1)
	src := rt.Submit(Opts{Name: "load", Cost: 1}, body)
	for i := 0; i < 139; i++ {
		name := "work"
		if i%20 == 0 {
			name = "flaky"
		}
		rt.Submit(Opts{Name: name, Cost: 0.5, OutBytes: 32}, body, src)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	return rt.Graph()
}

// writeRecord renders a graph the ways a reader sees it: the provenance
// JSON (at a fixed export time), the Graphviz DOT, and the failed attempts
// by task without their wall-clock instants.
func writeRecord(t *testing.T, b *bytes.Buffer, name string, g *graph.Graph) {
	t.Helper()
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	fmt.Fprintf(b, "== %s: Export\n", name)
	if err := g.Export(name, map[string]string{"shape": name}, now).WriteJSON(b); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== %s: DOT\n%s", name, g.DOT(name))
	fmt.Fprintf(b, "== %s: failures\n", name)
	byTask := g.FailuresByTask()
	for id := 0; id < g.Len(); id++ {
		for _, ev := range byTask[id] {
			fmt.Fprintf(b, "task %d attempt %d mode %s fraction %g\n", ev.Task, ev.Attempt, ev.Mode, ev.CostFraction)
		}
	}
}

// TestRecordGolden pins what a real runtime records, byte for byte: task
// order, deps and their flags, nesting, resource demands, retry budgets and
// failure events, through every renderer of the record. A change to how the
// graph stores its records must leave the file as it is; run with -update
// only when what a runtime records changes on purpose.
func TestRecordGolden(t *testing.T) {
	var got bytes.Buffer
	writeRecord(t, &got, "record", recordedWorkflow(t))
	writeRecord(t, &got, "faults", faultyWorkflow(t))
	if *update {
		if err := os.WriteFile(recordGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(recordGolden)
	if errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%v (run with -update to create it)", err)
	} else if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gotLines), len(wantLines)) {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d of %s differs:\n got  %.200s\n want %.200s", i+1, recordGolden, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines recorded, %s has %d", len(gotLines)-1, recordGolden, len(wantLines)-1)
	}
}

// TestRecordedFloorDepsAscend: a submit after Gets of four independent tasks
// carries all four in its sync floor, and records them as OrderOnly deps in
// ascending id order, so fifty runtimes running the same program export the
// same bytes.
func TestRecordedFloorDepsAscend(t *testing.T) {
	var first []byte
	for run := 0; run < 50; run++ {
		rt := New(Config{Workers: 2})
		leaves := make([]*Future, 4)
		for i := range leaves {
			leaves[i] = rt.Submit(Opts{Name: "leaf"}, constTask(i))
		}
		for _, f := range leaves {
			if _, err := rt.Get(f); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.Get(rt.Submit(Opts{Name: "after"}, constTask(4))); err != nil {
			t.Fatal(err)
		}
		after, _ := rt.Graph().Task(4)
		for i, d := range after.Deps {
			if d.Task != i || !d.OrderOnly || !d.ViaMaster {
				t.Fatalf("run %d: deps %+v, want tasks 0..3 in order, each ViaMaster and OrderOnly", run, after.Deps)
			}
		}
		if len(after.Deps) != 4 {
			t.Fatalf("run %d: deps %+v, want tasks 0..3", run, after.Deps)
		}
		var b bytes.Buffer
		writeRecord(t, &b, "floor", rt.Graph())
		if run == 0 {
			first = b.Bytes()
		} else if !bytes.Equal(b.Bytes(), first) {
			t.Fatalf("run %d records other bytes than run 0:\n%s\nwant\n%s", run, b.Bytes(), first)
		}
	}
}
