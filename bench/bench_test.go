package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"taskml/internal/exec"
)

// The smoke runs spawn loopback workers, which are re-execs of this test
// binary.
func TestMain(m *testing.M) {
	exec.MaybeWorkerMain()
	os.Exit(m.Run())
}

func TestQuantiles(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(asc, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of an unsorted even sample = %v, want 4", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("an empty sample has no quantile: want 0")
	}
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Q1 != 2 || s.P50 != 3 || s.Q3 != 4 {
		t.Errorf("summarize = %+v", s)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false}, // ceil(989.01) = 990, 9 beyond
		{1000, 0.99, true}, // exactly 10 beyond
		{100, 0.90, true},
		{99, 0.90, false},
		{20000, 0.99, true},
		{5, 0.5, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := tail(xs[:999], 0.99); ok {
		t.Error("tail of 999 samples reported a p99")
	}
	if v, ok := tail(xs, 0.99); !ok || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("tail of 1000 samples = %v, %v", v, ok)
	}
}

// The same seed lays out the same schedule; another seed replays other
// signals; pushes are in due order and never precede their stream's start.
func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	a, sa := schedule(200, 5, 2*time.Second, time.Second, 3)
	b, sb := schedule(200, 5, 2*time.Second, time.Second, 3)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(sa, sb) {
		t.Fatal("the same seed gave two schedules")
	}
	if _, sc := schedule(200, 5, 2*time.Second, time.Second, 4); reflect.DeepEqual(sa, sc) {
		t.Error("another seed replays the same signals")
	}
	if len(a) != 1000 {
		t.Fatalf("%d pushes, want 1000", len(a))
	}
	next := make([]int32, 200)
	for i, p := range a {
		if i > 0 && p.due < a[i-1].due {
			t.Fatalf("push %d is due before push %d", i, i-1)
		}
		if p.k != next[p.stream] {
			t.Fatalf("stream %d: push %d arrives when %d is next", p.stream, p.k, next[p.stream])
		}
		next[p.stream]++
		want := time.Duration(float64(2*time.Second)*float64(p.stream)/200) + time.Duration(p.k)*time.Second
		if p.due != want {
			t.Fatalf("stream %d push %d due at %v, want %v", p.stream, p.k, p.due, want)
		}
	}
}

func TestPushOf(t *testing.T) {
	for _, c := range []struct{ end, want int }{{800, 0}, {801, 1}, {900, 1}, {901, 2}, {1600, 8}} {
		if got := pushOf(c.end, 800, 100); got != c.want {
			t.Errorf("pushOf(%d) = %d, want %d", c.end, got, c.want)
		}
	}
}

// A span's self time is its duration less what its children cover, and the
// layers' shares of a repetition sum to one.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Rep: 0, Layer: "harness", StartUS: 0, DurUS: 100},
		{ID: 1, Parent: 0, Rep: 0, Layer: "compss", StartUS: 10, DurUS: 30},
		{ID: 2, Parent: 1, Rep: 0, Layer: "exec", StartUS: 15, DurUS: 10},
		{ID: 3, Parent: 0, Rep: 0, Layer: "serve", StartUS: 50, DurUS: 40},
		{ID: 4, Parent: 0, Rep: 0, Layer: "serve", StartUS: 80, DurUS: 30}, // overlaps 3 and overruns 0: covered once, clipped
		{ID: 5, Parent: -1, Rep: 1, Layer: "harness", StartUS: 200, DurUS: 50},
	}
	self := selfTimes(spans)
	want := map[int]float64{0: 100 - 30 - 40 - 10, 1: 20, 2: 10, 3: 40, 4: 30, 5: 50}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}

	tree := spans[:4]
	shares := layerShares(tree, map[int]bool{0: true})
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("layer shares sum to %v, want 1: %v", sum, shares)
	}
	if shares["compss"] != 0.2 || shares["exec"] != 0.1 || shares["serve"] != 0.4 {
		t.Errorf("layer shares = %v", shares)
	}
}

func TestTracerNestsCalls(t *testing.T) {
	tr := newTracer(true)
	rep := tr.repetition("w", func() {
		tr.call("compss", "outer", func() {
			tr.call("exec", "inner", func() {})
		})
		tr.call("serve", "next", func() {})
	})
	if rep != 0 || len(tr.spans) != 4 {
		t.Fatalf("rep %d, %d spans", rep, len(tr.spans))
	}
	parents := []int{-1, 0, 1, 0}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Rep != 0 {
			t.Errorf("span %d (%s): parent %d rep %d", i, s.Name, s.Parent, s.Rep)
		}
	}
	off := newTracer(false)
	if off.repetition("w", func() { off.call("compss", "x", func() {}) }); len(off.spans) != 0 {
		t.Error("a switched-off tracer recorded spans")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The tables in spec.go stay inside BENCHMARK.json's limits, and the file at
// the root of the repository is what -spec prints.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q bound %v better %q", m.Name, m.Unit, m.Bound, m.Better)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark's directory")
	}
	var have, want any
	if err := json.Unmarshal(data, &have); err != nil {
		t.Fatal(err)
	}
	printed, _ := json.Marshal(benchmarkSpec())
	if err := json.Unmarshal(printed, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Error("BENCHMARK.json differs from what -spec prints")
	}
}

// Every workload runs end to end on shrunken sizes, on both backends, and
// reports every metric of its run; a corrupted reference fails it.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			start := time.Now()
			res, err := runWorkload(options{workload: w.Name, seed: 2, seconds: 1, quick: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s = %+v", m.Name, v)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			if d := time.Since(start); d > 4*time.Second && !raceDetector {
				t.Errorf("quick run took %v", d)
			}

			bad, err := runWorkload(options{workload: w.Name, seed: 2, seconds: 1, quick: true, corrupt: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if bad.Correct || bad.Failed == 0 {
				t.Errorf("corrupted reference: correct %v, %d failed", bad.Correct, bad.Failed)
			}
		})
	}
}

// A traced run reports every per-layer metric, measures every one that is a
// time, and writes its spans.
func TestQuickTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	out := t.TempDir() + "/trace.json"
	res, err := runWorkload(options{workload: "gram_remote", seed: 1, seconds: 1, quick: true, traced: true, traceOut: out}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("correct %v, %d metrics of %d", res.Correct, len(res.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		v := res.Metrics[m.Name]
		switch m.Unit {
		case "s", "ms", "us", "ns":
			if !(v.Value > 0) && m.Name != "exec.rtt_us_p99" { // too few quick samples for a p99
				t.Errorf("%s = %v: a time must be measured in every traced run", m.Name, v.Value)
			}
		}
	}
	var doc struct {
		Spans []span    `json:"spans"`
		Tasks []taskRow `json:"tasks"`
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 || len(doc.Tasks) == 0 {
		t.Errorf("%d spans, %d task rows written", len(doc.Spans), len(doc.Tasks))
	}
}
