package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taskml/internal/compss"
)

// span is one timed call from the benchmark into a layer's public surface.
// Spans are recorded from this package only, around the call: the program
// under test carries no instrumentation of its own.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a repetition (the root of its tree)
	Rep     int     `json:"rep"`    // one id per repetition, shared by all its spans
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// taskRow is one repetition's task-level time folded by task name, from a
// compss.StatsObserver attached through Config.Observers.
type taskRow struct {
	Rep     int     `json:"rep"`
	Name    string  `json:"name"`
	Module  string  `json:"module"`
	Count   int     `json:"count"`
	RunS    float64 `json:"run_s"`
	QueuedS float64 `json:"queued_s"`
	WaitS   float64 `json:"wait_deps_s"`
	Stolen  int     `json:"stolen"`
	Failed  int     `json:"attempts_failed"`
}

// tracer keeps spans in memory and writes them when the run ends. A nil or
// switched-off tracer costs one branch per call.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	tasks []taskRow
	stack []int // open spans, innermost last
	rep   int

	// cbNS is the time spent inside the traced run's own callbacks (the
	// server's Hook), self-timed: the tracing cost of a run whose wall the
	// schedule fixes.
	cbNS atomic.Int64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), rep: -1} }

func (t *tracer) us(at time.Time) float64 { return toUS(at.Sub(t.t0)) }

func (t *tracer) open(layer, name string) int {
	t.mu.Lock()
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Layer: layer, Name: name})
	t.stack = append(t.stack, id)
	// Stamped last, so the bookkeeping above falls to the parent.
	t.spans[id].StartUS = t.us(time.Now())
	t.mu.Unlock()
	return id
}

func (t *tracer) close(id int) {
	end := t.us(time.Now())
	t.mu.Lock()
	t.spans[id].DurUS = end - t.spans[id].StartUS
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// repetition runs fn as one repetition of a workload: the root span every
// layer call inside it hangs from. It returns the repetition id.
func (t *tracer) repetition(workload string, fn func()) int {
	if !t.on {
		fn()
		return -1
	}
	t.mu.Lock()
	t.rep++
	rep := t.rep
	t.mu.Unlock()
	id := t.open("harness", workload)
	fn()
	t.close(id)
	return rep
}

// call times fn as a call into layer from the driving goroutine. Calls nest
// and must not be made concurrently: the call tree is sequential, which is
// why the self times of one repetition sum to its wall.
func (t *tracer) call(layer, name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	id := t.open(layer, name)
	fn()
	t.close(id)
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover, in microseconds.
func selfTimes(spans []span) map[int]float64 {
	type iv struct{ lo, hi float64 }
	kids := map[int][]iv{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	out := map[int]float64{}
	for _, s := range spans {
		lo, hi := s.StartUS, s.StartUS+s.DurUS
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := 0.0, lo
		for _, k := range ivs {
			a, b := max(k.lo, edge), min(k.hi, hi)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		out[s.ID] = s.DurUS - covered
	}
	return out
}

// layerShares folds self times by layer over the given repetitions and
// divides by their summed wall, so the shares of one repetition sum to 1.
func layerShares(spans []span, reps map[int]bool) map[string]float64 {
	self := selfTimes(spans)
	byLayer := map[string]float64{}
	wall := 0.0
	for _, s := range spans {
		if !reps[s.Rep] {
			continue
		}
		byLayer[s.Layer] += self[s.ID]
		if s.Parent < 0 {
			wall += s.DurUS
		}
	}
	for l := range byLayer {
		byLayer[l] = ratio(byLayer[l], wall)
	}
	return byLayer
}

// moduleOf folds a task name to the module whose body it runs.
func moduleOf(task string) string {
	switch {
	case strings.HasPrefix(task, "rf_"):
		return "forest"
	case strings.HasPrefix(task, "pca_"), strings.HasPrefix(task, "scaler_"):
		return "preproc"
	case strings.HasPrefix(task, "nn_"):
		return "knn"
	case strings.HasPrefix(task, "serve_"):
		return "core"
	case strings.HasPrefix(task, "bench_"):
		return "harness"
	}
	return "dsarray" // row_block, partial_gram, *_merge, col_sum, center_block, transform_block, load_block
}

// addTasks folds one repetition's observer stats into task rows.
func (t *tracer) addTasks(rep int, stats []compss.TaskStat) {
	byName := map[string]*taskRow{}
	for _, st := range stats {
		r := byName[st.Name]
		if r == nil {
			r = &taskRow{Rep: rep, Name: st.Name, Module: moduleOf(st.Name)}
			byName[st.Name] = r
		}
		r.Count++
		r.RunS += st.Duration.Seconds()
		r.QueuedS += st.Queued.Seconds()
		r.WaitS += st.WaitDeps.Seconds()
		r.Stolen += st.Stolen
		for _, a := range st.PerAttempt {
			if a.Outcome != "ok" {
				r.Failed++
			}
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	t.mu.Lock()
	for _, n := range names {
		t.tasks = append(t.tasks, *byName[n])
	}
	t.mu.Unlock()
}

// write stores the spans and task rows as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	doc := map[string]any{"meta": meta, "spans": t.spans, "tasks": t.tasks}
	err = json.NewEncoder(f).Encode(doc)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
