package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"taskml/internal/compss"
	"taskml/internal/exec"
	"taskml/internal/serve"
)

// Collector is the lock-cheap in-memory Observer sink: Observe appends the
// event to a mutex-guarded buffer and returns. All rendering cost is
// deferred to Chrome(), which runs after the workflow finished.
//
// Beyond the Observer events it accepts the exec fleet's events (cache
// hit/miss outcomes and occupancy per worker response, pulls, joins and
// deaths) via AddExecEvent — NewCollectorFor wires it to a remote backend —
// and renders them as extra trace rows alongside the task slices.
type Collector struct {
	mu      sync.Mutex
	events  []compss.Event
	cache   []ExecSample // EventCache
	fleet   []ExecSample // EventJoin, EventDead
	serving []ServeSample
}

// ExecSample is one exec fleet event plus its arrival time (the Collector
// stamps Time on delivery, putting data-plane and membership activity on the
// same clock as the Observer events).
type ExecSample struct {
	Time time.Time
	exec.Event
}

// ServeSample is one serving-plane observation plus its arrival time —
// batch flushes, alarms, shed windows, admission rejections and scoring
// errors on the same clock as the task slices. Wire it with
// serve.Config.Hook = collector.AddServeSample.
type ServeSample struct {
	Time time.Time
	serve.Sample
}

// NewCollector returns an empty collector; attach it via
// compss.Config.Observers.
func NewCollector() *Collector { return &Collector{} }

// NewCollectorFor returns an empty collector for runs on backend: when that
// is a remote fleet, its data plane and membership events (AddExecEvent)
// land in the collector too, in a trace process of their own. Attach it via
// compss.Config.Observers, as NewCollector's.
func NewCollectorFor(backend exec.Backend) *Collector {
	c := NewCollector()
	if r, ok := backend.(*exec.Remote); ok {
		r.SetHook(c.AddExecEvent)
	}
	return c
}

var _ compss.Observer = (*Collector)(nil)

// Observe buffers one lifecycle event.
func (c *Collector) Observe(ev compss.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// AddExecEvent records one exec fleet event, stamped with the arrival time.
// It is shaped to be installed directly as an exec.Remote hook and is safe
// for concurrent use.
func (c *Collector) AddExecEvent(ev exec.Event) {
	es := ExecSample{Time: time.Now(), Event: ev}
	c.mu.Lock()
	if ev.Kind == exec.EventCache {
		c.cache = append(c.cache, es)
	} else {
		c.fleet = append(c.fleet, es)
	}
	c.mu.Unlock()
}

// AddServeSample records one serving-plane observation, stamped with the
// arrival time. It is shaped to be installed directly as a serve.Config
// hook and is safe for concurrent use.
func (c *Collector) AddServeSample(s serve.Sample) {
	ss := ServeSample{Time: time.Now(), Sample: s}
	c.mu.Lock()
	c.serving = append(c.serving, ss)
	c.mu.Unlock()
}

// Events returns a snapshot of the collected events in arrival order.
func (c *Collector) Events() []compss.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]compss.Event, len(c.events))
	copy(out, c.events)
	return out
}

// ServeSamples returns a snapshot of the collected serving-plane samples
// in arrival order.
func (c *Collector) ServeSamples() []ServeSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ServeSample, len(c.serving))
	copy(out, c.serving)
	return out
}

// attemptKey identifies one executed attempt of one task.
type attemptKey struct {
	task, attempt int
}

// attemptSlice is a closed Start→End/Failure interval of one attempt.
type attemptSlice struct {
	attemptKey
	name       string
	start, end float64 // µs from trace origin
	outcome    string  // "ok", or the failure mode
	errText    string
	worker     string // exec-backend worker id; "" for in-process attempts
}

// sortable wraps a TraceEvent with the tiebreak keys that make the emitted
// order fully deterministic even when timestamps collide (the golden test
// strips ts, so shape must not depend on clock resolution).
type sortable struct {
	ev            TraceEvent
	ord           int // phase priority: E < i < C < B at equal ts
	task, attempt int
}

// Chrome renders everything collected as a Chrome trace. The runtime
// does not pin in-process tasks to worker identities (a body that blocks on
// a nested Get releases its slot and re-acquires a possibly different one),
// so the exporter reconstructs worker rows by greedily packing the attempt
// intervals into lanes: lane count equals the peak concurrency actually
// observed, which is bounded by Config.Workers.
//
// Attempts an execution backend ran remotely (Event.Worker non-empty on the
// closing End/Failure event) *are* pinned — the backend reports which worker
// process executed them — so they bypass greedy packing and land on lanes
// named after the worker id ("w0", "w1", ...), one extra lane per worker
// only when a multi-slot worker overlaps attempts ("w0 slot 1").
//
// Emitted tracks of the "taskml runtime" process:
//
//   - "worker N" rows: one B/E slice per executed in-process attempt,
//     failed attempts labelled "name!k" (matching the virtual-cluster Gantt
//     convention), with instant markers for failures and retries on the
//     lane of the attempt they refer to;
//   - "wN" rows: the same, for attempts executed by remote worker wN;
//   - a "failed deps" row holding instant markers for tasks whose body
//     never ran because a dependency failed;
//   - counter tracks "ready" (tasks runnable but not yet started) and
//     "workers" (attempts executing), sampled at every transition.
//
// Exec events add a second process ("exec data plane"): one instant row per
// remote worker (cache hit / miss markers) and a "resident bytes" counter
// with one series per worker — the re-shipping a reduction tree avoids (or
// pays) is visible directly in the viewer — plus one
// instant lane ("fleet") marking joins and deaths and a "fleet size"
// counter tracking alive workers and slots, so a run's membership changes
// sit next to its queue-depth counters. Serving samples add a third process
// ("serving", see renderServeRows) with batcher, alarm and backpressure
// lanes. Empty processes are omitted.
func (c *Collector) Chrome() *Trace {
	// The slices are append-only, so the prefixes read here stay valid
	// without a copy.
	c.mu.Lock()
	events, cache, fleet, serving := c.events, c.cache, c.fleet, c.serving
	c.mu.Unlock()
	// The trace origin is the earliest timestamp of any stream.
	var origin time.Time
	haveOrigin := false
	earliest := func(ts time.Time) {
		if !haveOrigin || ts.Before(origin) {
			origin, haveOrigin = ts, true
		}
	}
	for _, ev := range events {
		earliest(ev.Time)
	}
	for _, s := range cache {
		earliest(s.Time)
	}
	for _, f := range fleet {
		earliest(f.Time)
	}
	for _, s := range serving {
		earliest(s.Time)
	}
	t := &Trace{}
	renderEvents(t, origin, events)
	if len(cache) > 0 || len(fleet) > 0 {
		t.Add(processName(cachePid, "exec data plane"))
		nLanes := renderCacheRows(t, origin, cache)
		renderFleetRows(t, origin, fleet, nLanes)
	}
	renderServeRows(t, origin, serving)
	return t
}

// renderEvents is the task-slice half of the export (see Collector.Chrome
// for the emitted tracks).
func renderEvents(t *Trace, origin time.Time, events []compss.Event) {
	if len(events) == 0 {
		return
	}
	// Sub-microsecond resolution matters: trace ts is in µs, but injected
	// (body-less) attempts can close within the clock's resolution. Every
	// rendered event takes its ts from tsOf, which enforces per-task
	// monotonicity — with a strict 1 ns step for the events that close an
	// attempt slice — so a slice's E, its failure instant and the
	// derived counter samples can never sort before its B no matter how
	// coarse the clock: the exported shape is deterministic, which the
	// golden test relies on.
	us := func(ev compss.Event) float64 {
		return float64(ev.Time.Sub(origin).Nanoseconds()) / 1e3
	}
	tsOf := make([]float64, len(events))
	lastTs := map[int]float64{}
	for i, ev := range events {
		ts := us(ev)
		if prev, ok := lastTs[ev.Task]; ok {
			floor := prev
			if ev.Kind == compss.EventEnd || (ev.Kind == compss.EventFailure && ev.Attempt >= 0) {
				floor = prev + 1e-3 // strictly after the attempt's Start
			}
			if ts < floor {
				ts = floor
			}
		}
		lastTs[ev.Task] = ts
		tsOf[i] = ts
	}

	// Pair Start with the End/Failure that closes it, per (task, attempt).
	open := map[attemptKey]attemptSlice{}
	var slices []attemptSlice
	for i, ev := range events {
		k := attemptKey{ev.Task, ev.Attempt}
		switch ev.Kind {
		case compss.EventStart:
			open[k] = attemptSlice{attemptKey: k, name: ev.Name, start: tsOf[i]}
		case compss.EventEnd, compss.EventFailure:
			s, ok := open[k]
			if !ok {
				continue // dep failure (attempt -1) or unmatched close
			}
			delete(open, k)
			s.end = tsOf[i]
			s.worker = ev.Worker
			if ev.Kind == compss.EventEnd {
				s.outcome = "ok"
			} else {
				s.outcome = ev.Mode
				if ev.Err != nil {
					s.errText = ev.Err.Error()
				}
			}
			slices = append(slices, s)
		}
	}
	// Attempts still open (runtime torn down mid-flight) are dropped: a
	// dangling B without its E renders as an infinite slice.

	sort.Slice(slices, func(i, j int) bool {
		a, b := slices[i], slices[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.task != b.task {
			return a.task < b.task
		}
		return a.attempt < b.attempt
	})
	// Lane assignment. In-process attempts (no worker id) are greedily
	// packed, as before; remote attempts are grouped per worker id, each
	// group packed on its own so a multi-slot worker's overlapping attempts
	// still nest correctly ("w0", "w0 slot 1", ...).
	var localIdx []int
	remoteIdx := map[string][]int{}
	var workerIDs []string
	for i, s := range slices {
		if s.worker == "" {
			localIdx = append(localIdx, i)
			continue
		}
		if _, ok := remoteIdx[s.worker]; !ok {
			workerIDs = append(workerIDs, s.worker)
		}
		remoteIdx[s.worker] = append(remoteIdx[s.worker], i)
	}
	sort.Strings(workerIDs)

	const pid = 0
	t.Add(processName(pid, "taskml runtime"))
	laneOf := map[attemptKey]int{}
	packInto := func(idx []int, base int) int {
		starts := make([]float64, len(idx))
		ends := make([]float64, len(idx))
		for j, i := range idx {
			starts[j], ends[j] = slices[i].start, slices[i].end
		}
		lanes, n := PackLanes(starts, ends)
		for j, i := range idx {
			laneOf[slices[i].attemptKey] = base + lanes[j]
		}
		return n
	}
	nLocal := packInto(localIdx, 0)
	for l := 0; l < nLocal; l++ {
		t.Add(threadName(pid, l, fmt.Sprintf("worker %d", l)))
	}
	next := nLocal
	for _, wid := range workerIDs {
		n := packInto(remoteIdx[wid], next)
		for l := 0; l < n; l++ {
			name := wid
			if l > 0 {
				name = fmt.Sprintf("%s slot %d", wid, l)
			}
			t.Add(threadName(pid, next+l, name))
		}
		next += n
	}
	depLane := next // row for tasks that never ran
	hasDepLane := false

	var out []sortable
	for _, s := range slices {
		name := s.name
		if s.outcome != "ok" {
			name = fmt.Sprintf("%s!%d", s.name, s.attempt)
		}
		args := map[string]any{"task": s.task, "attempt": s.attempt, "outcome": s.outcome}
		if s.worker != "" {
			args["worker"] = s.worker
		}
		tid := laneOf[s.attemptKey]
		out = append(out,
			sortable{ord: 3, task: s.task, attempt: s.attempt, ev: TraceEvent{
				Name: name, Cat: "task", Ph: "B", Ts: s.start, Pid: pid, Tid: tid, Args: args,
			}},
			sortable{ord: 0, task: s.task, attempt: s.attempt, ev: TraceEvent{
				Name: name, Cat: "task", Ph: "E", Ts: s.end, Pid: pid, Tid: tid,
			}},
		)
	}

	// Instant markers and counter samples from the raw stream, stamped with
	// the same monotonic-clamped timestamps as the slices they refer to.
	ready, busy := 0, 0
	ended := map[int]bool{}
	counter := func(ts float64, task int, name string, v int) sortable {
		return sortable{ord: 2, task: task, ev: TraceEvent{
			Name: name, Cat: "runtime", Ph: "C", Ts: ts, Pid: pid,
			Args: map[string]any{"n": v},
		}}
	}
	instant := func(ts float64, ev compss.Event, name string, tid int) sortable {
		args := map[string]any{"task": ev.Task, "name": ev.Name, "attempt": ev.Attempt}
		if ev.Mode != "" {
			args["mode"] = ev.Mode
		}
		if ev.Err != nil {
			args["err"] = ev.Err.Error()
		}
		return sortable{ord: 1, task: ev.Task, attempt: ev.Attempt, ev: TraceEvent{
			Name: name, Cat: "fault", Ph: "i", Ts: ts, Pid: pid, Tid: tid, Scope: "t", Args: args,
		}}
	}
	for i, ev := range events {
		ts := tsOf[i]
		switch ev.Kind {
		case compss.EventDepsReady:
			ready++
			out = append(out, counter(ts, ev.Task, "ready", ready))
		case compss.EventRetry:
			if ended[ev.Task] {
				// After its End a task's Retry is a rerun from lineage (a held
				// output was lost): it queues nowhere, no Start follows, and the
				// worker's cache lane carries its "recompute" instant.
				continue
			}
			ready++
			out = append(out, counter(ts, ev.Task, "ready", ready))
			out = append(out, instant(ts, ev, "retry", laneOf[attemptKey{ev.Task, ev.Attempt - 1}]))
		case compss.EventStart:
			ready--
			busy++
			out = append(out, counter(ts, ev.Task, "ready", ready), counter(ts, ev.Task, "workers", busy))
		case compss.EventEnd:
			busy--
			ended[ev.Task] = true
			out = append(out, counter(ts, ev.Task, "workers", busy))
		case compss.EventFailure:
			if ev.Attempt < 0 {
				hasDepLane = true
				out = append(out, instant(ts, ev, "failure", depLane))
				continue
			}
			busy--
			out = append(out, counter(ts, ev.Task, "workers", busy))
			out = append(out, instant(ts, ev, "failure", laneOf[attemptKey{ev.Task, ev.Attempt}]))
		}
	}
	if hasDepLane {
		t.Add(threadName(pid, depLane, "failed deps"))
	}

	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ev.Ts != b.ev.Ts {
			return a.ev.Ts < b.ev.Ts
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
	for _, s := range out {
		t.Add(s.ev)
	}
}

// cachePid is the trace process holding the exec rows: per-worker cache
// lanes, the fleet lane, and their counters.
const cachePid = 1

// renderCacheRows emits the per-worker cache hit/miss, pull and recompute
// instant rows and the multi-series "resident bytes" counter, all on the
// same clock as the task slices; it returns the number of lanes it used
// (the fleet lane starts after them).
func renderCacheRows(t *Trace, origin time.Time, samples []ExecSample) int {
	if len(samples) == 0 {
		return 0
	}
	laneOf := map[string]int{}
	var workerIDs []string
	for _, s := range samples {
		if _, ok := laneOf[s.Worker]; !ok {
			laneOf[s.Worker] = 0
			workerIDs = append(workerIDs, s.Worker)
		}
	}
	sort.Strings(workerIDs)
	for i, wid := range workerIDs {
		laneOf[wid] = i
		t.Add(threadName(cachePid, i, wid+" cache"))
	}
	// One counter series per worker; each sample re-emits the full snapshot
	// so the stacked track always shows total resident bytes.
	occupancy := map[string]int64{}
	for _, s := range samples {
		ts := float64(s.Time.Sub(origin).Nanoseconds()) / 1e3
		if ts < 0 {
			ts = 0
		}
		lane := laneOf[s.Worker]
		if s.Pulled > 0 || s.Redo {
			name, args := "pull", map[string]any{"values": s.Pulled}
			if s.Redo {
				name, args = "recompute", map[string]any{"task": s.Task}
			}
			t.Add(TraceEvent{
				Name: name, Cat: "cache", Ph: "i", Ts: ts,
				Pid: cachePid, Tid: lane, Scope: "t", Args: args,
			})
			if s.Pulled > 0 {
				continue // a pull reports no occupancy
			}
		}
		if s.Hits > 0 || s.Misses > 0 {
			name := "cache hit"
			if s.Misses > 0 {
				name = "cache miss"
			}
			t.Add(TraceEvent{
				Name: name, Cat: "cache", Ph: "i", Ts: ts,
				Pid: cachePid, Tid: lane, Scope: "t",
				Args: map[string]any{"task": s.Task, "hits": s.Hits, "misses": s.Misses},
			})
		}
		occupancy[s.Worker] = s.CacheBytes
		args := make(map[string]any, len(occupancy))
		for w, b := range occupancy {
			args[w] = b
		}
		t.Add(TraceEvent{
			Name: "resident bytes", Cat: "cache", Ph: "C", Ts: ts,
			Pid: cachePid, Args: args,
		})
	}
	return len(workerIDs)
}

// servePid is the trace process holding the serving-plane rows.
const servePid = 2

// renderServeRows emits the "serving" process: a "batcher" lane with one
// instant per flush, an "alarms" lane, and a "backpressure" lane carrying
// shed / reject / error markers — plus counter tracks "serve queue"
// (pending windows and in-flight batches), "serve streams" (open streams)
// and "shed windows" (cumulative). Latency histograms are the server's
// (serve.Metrics); the trace carries the per-event view.
func renderServeRows(t *Trace, origin time.Time, serving []ServeSample) {
	if len(serving) == 0 {
		return
	}
	t.Add(processName(servePid, "serving"))
	const (
		laneBatcher = 0
		laneAlarms  = 1
		laneBack    = 2
	)
	t.Add(threadName(servePid, laneBatcher, "batcher"))
	t.Add(threadName(servePid, laneAlarms, "alarms"))
	t.Add(threadName(servePid, laneBack, "backpressure"))
	for _, s := range serving {
		ts := float64(s.Time.Sub(origin).Nanoseconds()) / 1e3
		if ts < 0 {
			ts = 0
		}
		lane := laneBack
		args := map[string]any{}
		switch s.Kind {
		case "flush":
			lane = laneBatcher
			args["batch"] = s.Batch
		case "alarm":
			lane = laneAlarms
			args["stream"] = s.Stream
			args["latency_us"] = s.LatencyUS
		case "shed":
			args["stream"] = s.Stream
			args["shed_total"] = s.Shed
		case "error":
			args["batch"] = s.Batch
		}
		t.Add(TraceEvent{
			Name: s.Kind, Cat: "serve", Ph: "i", Ts: ts,
			Pid: servePid, Tid: lane, Scope: "t", Args: args,
		})
		t.Add(TraceEvent{
			Name: "serve queue", Cat: "serve", Ph: "C", Ts: ts, Pid: servePid,
			Args: map[string]any{"pending": s.Pending, "inflight": s.InFlight},
		})
		t.Add(TraceEvent{
			Name: "serve streams", Cat: "serve", Ph: "C", Ts: ts, Pid: servePid,
			Args: map[string]any{"streams": s.Streams},
		})
		if s.Kind == "shed" {
			t.Add(TraceEvent{
				Name: "shed windows", Cat: "serve", Ph: "C", Ts: ts, Pid: servePid,
				Args: map[string]any{"shed": s.Shed},
			})
		}
	}
}

// renderFleetRows emits the fleet membership lane: one instant per
// transition (named by its kind — "join" or "dead") and a
// "fleet size" counter carrying the alive worker and slot totals after each
// transition.
func renderFleetRows(t *Trace, origin time.Time, fleet []ExecSample, lane int) {
	if len(fleet) == 0 {
		return
	}
	t.Add(threadName(cachePid, lane, "fleet"))
	for _, f := range fleet {
		ts := float64(f.Time.Sub(origin).Nanoseconds()) / 1e3
		if ts < 0 {
			ts = 0
		}
		args := map[string]any{"workers": f.Workers, "slots": f.Slots}
		if f.Worker != "" {
			args["worker"] = f.Worker
		}
		if f.Reason != "" {
			args["reason"] = f.Reason
		}
		t.Add(TraceEvent{
			Name: f.Kind, Cat: "fleet", Ph: "i", Ts: ts,
			Pid: cachePid, Tid: lane, Scope: "t", Args: args,
		})
		t.Add(TraceEvent{
			Name: "fleet size", Cat: "fleet", Ph: "C", Ts: ts, Pid: cachePid,
			Args: map[string]any{"workers": f.Workers, "slots": f.Slots},
		})
	}
}
