package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"taskml/internal/exec"
	"taskml/internal/mat"
)

// run is one execution of one workload: its options, the spans and box
// samples it collects, and the outcome it accumulates.
type run struct {
	o   options
	tr  *tracer
	box boxProbe
	out io.Writer

	setupS    []float64
	repeated  bool // a repetition has already been repeated after a runtime error
	attempted int64
	failed    int64
	problems  []string

	e2e   map[string]float64 // end-to-end metrics, from untraced operations only
	layer map[string]float64 // per-layer metrics, filled in a traced run
}

// fail counts n operations as failed and says why; it makes the run incorrect.
func (r *run) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// repeatOnce reports whether a repetition that ended in err should be run
// again instead of counted: the first in a run is, a second one is not. A
// task of a correct DAG fails about once in a few hundred cv passes on the
// parent commit (README.md, Findings 1); without this, one run in thirty of
// a workload nothing is wrong with would be reported incorrect. The
// repetition is printed, never silent, and a run that needs two is failed.
func (r *run) repeatOnce(what string, err error) bool {
	if err == nil || r.repeated {
		return false
	}
	r.repeated = true
	r.note("REPEATED: %s ended in a runtime error and was run again: %v", what, err)
	return true
}

// try runs op, and once more if it ends in the run's first runtime error.
func (r *run) try(what string, op func() error) error {
	err := op()
	if r.repeatOnce(what, err) {
		err = op()
	}
	return err
}

func (r *run) note(format string, args ...any) {
	fmt.Fprintf(r.out, "  "+format+"\n", args...)
}

// timing prints one timing the way every timing is reported: median,
// quartiles and sample count.
func (r *run) timing(name, unit string, xs []float64) summary {
	s := summarize(xs)
	r.note("%-28s %12.6g %-4s  q1 %.6g  q3 %.6g  n %d", name, s.P50, unit, s.Q1, s.Q3, s.N)
	return s
}

// setUp times build as the workload's set-up, several times over so that
// setup_s is a median: discard undoes one build before the next. Whatever
// the last build left is what the measured section runs on.
func (r *run) setUp(build func() error, discard func()) error {
	total := 0.0
	for n := 1; ; n++ {
		r.box.sample()
		start := time.Now()
		err := build()
		if r.repeatOnce("a set-up", err) {
			discard()
			n--
			continue
		}
		if err != nil {
			r.fail(1, "set-up: %v", err)
			return err
		}
		d := time.Since(start).Seconds()
		r.setupS = append(r.setupS, d)
		total += d
		if r.o.quick || n >= 40 || (n >= 3 && total >= 1) {
			return nil
		}
		discard()
	}
}

// measure repeats op until the run's seconds are spent, at least floor and
// at most ceil times: the ceiling pins how much work peak memory is the peak
// of, and a healthy box reaches it before the seconds run out. op returns
// its own wall time; traced tells it whether this repetition records spans —
// every other one of a traced run, so the same run yields the tracing
// overhead. The box's speed is sampled before every sampleEvery-th
// repetition.
func (r *run) measure(floor, ceil, sampleEvery int, op func(traced bool) time.Duration) {
	start := time.Now()
	var walls []float64
	for i := 0; ; i++ {
		traced := r.o.traced && i%2 == 1
		if i%sampleEvery == 0 {
			r.box.sample()
		}
		walls = append(walls, op(traced).Seconds())
		// Stop where one more repetition would overshoot by more than it
		// undershoots now.
		if i+1 >= ceil || (i+1 >= floor && time.Since(start).Seconds()+median(walls)/2 >= r.o.seconds) {
			return
		}
	}
}

// usual converts a CPU-bound wall measured in this run to what it would be
// at the box's usual speed (boxProbe).
func (r *run) usual(wall float64) float64 { return wall / r.box.factor() }

// tracerFor returns the run's tracer for a traced repetition and a
// switched-off one otherwise.
func (r *run) tracerFor(traced bool) *tracer {
	if traced {
		return r.tr
	}
	return offTracer
}

var offTracer = newTracer(false)

// overhead is the tracing overhead of a repetition workload: traced median
// wall over untraced, less one.
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return median(traced)/median(untraced) - 1
}

// runGrace is how long past its -seconds a run may take; one that is
// healthy takes a few seconds.
const runGrace = 2 * time.Minute

// fleetWorkers and fleetSlots pin every loopback fleet: with the coordinator
// that makes three processes on this box's two cores.
const (
	fleetWorkers = 2
	fleetSlots   = 1
)

// openFleet spawns the pinned loopback fleet with the default data plane
// (references and peer-to-peer pulls).
func openFleet(workers int) (*exec.Remote, error) {
	b, err := exec.Open(exec.Config{Backend: "remote", Workers: workers, Slots: fleetSlots, Refs: true, P2P: true})
	if err != nil {
		return nil, err
	}
	return b.(*exec.Remote), nil
}

// checkFleet checks the fleet's invariants at quiescence and returns its
// counters. Workers piggyback peer-link byte counts on their next response,
// so one held request per worker — each fills a worker's only slot, so they
// land on distinct workers — collects what is still owed first.
func (r *run) checkFleet(rem *exec.Remote, workers int) exec.RemoteStats {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = rem.Execute("bench_hold", 1, []any{20})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.fail(1, "fleet: held request: %v", err)
		}
	}
	st := rem.Stats()
	if st.Dispatched != st.Completed+st.Failed {
		r.fail(1, "fleet: dispatched %d != completed %d + failed %d at quiescence", st.Dispatched, st.Completed, st.Failed)
	}
	if st.PeerBytesSent != st.PeerBytesRecv {
		r.fail(1, "fleet: peer bytes sent %d != received %d at quiescence", st.PeerBytesSent, st.PeerBytesRecv)
	}
	if st.Failed > 0 {
		r.fail(int64(st.Failed), "fleet: %d dispatches lost to connection failure", st.Failed)
	}
	return st
}

// execDelta is what one repetition added to the fleet's counters.
type execDelta struct {
	dispatched, sent, recv, peerBytes, peerFetches, peerFallbacks float64
	hits, misses, missRetries, failed                             float64
}

func deltaOf(a, b exec.RemoteStats) execDelta {
	d := func(x, y uint64) float64 { return float64(y - x) }
	return execDelta{
		dispatched: d(a.Dispatched, b.Dispatched), sent: d(a.BytesSent, b.BytesSent), recv: d(a.BytesRecv, b.BytesRecv),
		peerBytes: d(a.PeerBytesRecv, b.PeerBytesRecv), peerFetches: d(a.PeerFetches, b.PeerFetches),
		peerFallbacks: d(a.PeerFallbacks, b.PeerFallbacks), hits: d(a.RefHits, b.RefHits), misses: d(a.RefMisses, b.RefMisses),
		missRetries: d(a.MissRetries, b.MissRetries), failed: d(a.Failed, b.Failed),
	}
}

// execLayer reports the per-repetition medians of the fleet's counters, and
// prints the spread of the ones that depend on placement and timing.
func (r *run) execLayer(ds []execDelta) {
	col := func(f func(execDelta) float64) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = f(d)
		}
		return out
	}
	set := func(name string, f func(execDelta) float64) {
		xs := col(f)
		r.layer[name] = median(xs)
		if s := summarize(xs); s.Q1 != s.Q3 {
			r.note("%-28s per repetition: median %.6g, q1 %.6g, q3 %.6g, n %d", name, s.P50, s.Q1, s.Q3, s.N)
		}
	}
	set("exec.dispatched", func(d execDelta) float64 { return d.dispatched })
	set("exec.coord_bytes_sent", func(d execDelta) float64 { return d.sent })
	set("exec.coord_bytes_recv", func(d execDelta) float64 { return d.recv })
	set("exec.peer_bytes", func(d execDelta) float64 { return d.peerBytes })
	set("exec.peer_fetches", func(d execDelta) float64 { return d.peerFetches })
	set("exec.peer_fallbacks", func(d execDelta) float64 { return d.peerFallbacks })
	set("exec.miss_retries", func(d execDelta) float64 { return d.missRetries })
	set("exec.failed", func(d execDelta) float64 { return d.failed })
	set("exec.ref_hit_ratio", func(d execDelta) float64 { return ratio(d.hits, d.hits+d.misses) })
}

// matrixBits is an order-sensitive FNV-1a hash of a matrix's float bits:
// equal exactly when the matrices are bit-identical.
func matrixBits(m *mat.Dense) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range m.Data {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

func init() {
	// bench_echo(x) returns a copy of its matrix: the body behind the
	// round-trip and bulk probes. bench_hold(ms) occupies a slot.
	exec.Register("bench_echo", func(args []any) (any, error) {
		return args[0].(*mat.Dense).Clone(), nil
	})
	exec.Register("bench_hold", func(args []any) (any, error) {
		time.Sleep(time.Duration(args[0].(int)) * time.Millisecond)
		return 0, nil
	})
}

// runWorkload runs one workload and returns its result line; the readable
// report goes to out.
func runWorkload(o options, out io.Writer) (result, error) {
	var spec *workloadSpec
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].Name)
		if workloads[i].Name == o.workload {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive")
	}
	if o.quick {
		o.seconds = min(o.seconds, 1.5)
	}
	if o.traceOut == "" {
		o.traceOut = ".bench_build/trace-" + o.workload + ".json"
	}
	env := environment(o.seed)
	fmt.Fprintf(out, "%s: %s\n  %s\n", spec.Name, spec.Why, envLine(env))

	// A run that is stuck says where before whoever started it gives up on it.
	limit := time.Duration(o.seconds*float64(time.Second)) + runGrace
	watchdog := time.AfterFunc(limit, func() {
		dumpStacks(fmt.Sprintf("%s still running after %v", o.workload, limit))
		os.Exit(3)
	})
	defer watchdog.Stop()

	r := &run{o: o, tr: newTracer(o.traced), out: out, e2e: map[string]float64{}, layer: map[string]float64{}}
	selfStart, childStart := cpuSeconds()
	wallStart := time.Now()
	pool := mat.Scratch.Stats()
	spec.run(r)
	if o.traced {
		now := mat.Scratch.Stats()
		r.layer["mat.pool_hit_ratio"] = ratio(float64(now.Reuses-pool.Reuses), float64(now.Gets-pool.Gets))
		attempted := r.attempted
		r.tour() // its failures count; its operations are not the workload's
		r.attempted = attempted
	}
	r.e2e["setup_s"] = r.usual(median(r.setupS))
	r.note("box ran at %.3f of its usual time per unit of work (spin %.3f ms, walk %.3f ms, %d samples); set-up %.6g s as measured",
		r.box.factor(), median(r.box.spinMS), median(r.box.walkMS), len(r.box.spinMS), median(r.setupS))
	r.e2e["peak_rss_mb"] = peakRSSMB()
	self, children := cpuSeconds()

	res := result{Attempted: max(r.attempted, 1), Metrics: map[string]metricValue{}}
	if o.traced {
		r.layer["trace.spans"] = float64(len(r.tr.spans))
		r.layer["box.spin_ms_p50"] = median(r.box.spinMS)
		r.layer["box.walk_ms_p50"] = median(r.box.walkMS)
		r.layer["box.drift_factor"] = r.box.factor()
		r.layer["box.spin_slow_share"] = r.box.slowShare()
		r.layer["harness.cpu_s"] = self - selfStart + children - childStart
		r.layer["exec.worker_cpu_share"] = ratio(children-childStart, r.layer["harness.cpu_s"])
		env["workload"], env["seconds"], env["wall_s"] = o.workload, o.seconds, time.Since(wallStart).Seconds()
		if err := r.tr.write(o.traceOut, env); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		r.note("%d spans and %d task rows written to %s", len(r.tr.spans), len(r.tr.tasks), o.traceOut)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{r.layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			v := r.e2e[m.Name]
			if !(v > 0) || math.IsInf(v, 0) {
				r.fail(0, "%s = %v: an end-to-end metric must be a positive number", m.Name, v)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	specs := endToEnd
	if o.traced {
		specs = perLayer
	}
	for _, m := range specs {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  WRONG: %s\n", p)
	}
	res.Failed = r.failed
	res.Correct = len(r.problems) == 0
	fmt.Fprintf(out, "  attempted %d, failed %d, failed_share %.6g, correct %v, wall %.1f s\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct, time.Since(wallStart).Seconds())
	return res, nil
}
