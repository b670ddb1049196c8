package main

import (
	"fmt"
	"time"

	"taskml/internal/compss"
)

// The storm's pinned shapes.
const (
	stormFanout   = 10000 // independent tasks submitted from Main()
	stormChain    = 10000 // each task depends on the one before (plus the gate)
	stormLeaves   = 4096  // leaves of a pairwise reduction tree (plus the gate)
	stormParents  = 100   // parents, each submitting stormChildren in its body
	stormChildren = 100
	stormGets     = 100 // sequential Submit+Get of one task on an idle runtime, after every round
)

// stormShape is one DAG shape: run builds it on rt, waits for it and returns
// a value the shape's dependencies determine.
type stormShape struct {
	name  string
	tasks int
	want  int
	run   func(rt *compss.Runtime, n int) (int, error)
}

// The bodies do next to nothing — pass a count along — so that only the
// runtime's submit, dispatch, steal, park and dependency counting are timed,
// and the count proves every dependency resolved to its producer's value.
func one(_ *compss.TaskCtx, _ []any) (any, error) { return 1, nil }
func inc(_ *compss.TaskCtx, a []any) (any, error) { return a[0].(int) + 1, nil }
func add(_ *compss.TaskCtx, a []any) (any, error) { return a[0].(int) + a[1].(int), nil }

// gate submits a task that blocks until open is called; it returns 0.
//
// The shapes made of dependencies (chain, tree) are submitted whole behind a
// gate and then released, so that no producer can complete while a dependant
// is being wired to it. That is not how a user would write them: it keeps
// the workload off a race in compss's submit path (README.md, "Findings"),
// which otherwise runs about one tree merge in a million with a nil
// argument. Submission overlapping execution stays covered by the fan-out
// and nested shapes, whose tasks have no producers.
func gate(rt *compss.Runtime) (fut *compss.Future, open func()) {
	ch := make(chan struct{})
	fut = rt.Submit(noop, func(_ *compss.TaskCtx, _ []any) (any, error) {
		<-ch
		return 0, nil
	})
	return fut, func() { close(ch) }
}

func asInt(v any, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return v.(int), nil
}

var noop = compss.Opts{Name: "bench_noop"}

func stormShapes(quick bool) []stormShape {
	div := 1
	if quick {
		div = 20
	}
	fan, chain, leaves, parents := stormFanout/div, stormChain/div, stormLeaves/div, stormParents/div
	leaves = 1 << (len(fmt.Sprintf("%b", leaves)) - 1) // a power of two, so the tree is full
	return []stormShape{
		{"fanout", fan, fan, func(rt *compss.Runtime, n int) (int, error) {
			for i := 0; i < n; i++ {
				rt.Submit(noop, one)
			}
			err := rt.Barrier()
			return rt.Graph().Len(), err
		}},
		{"chain", chain + 1, chain, func(rt *compss.Runtime, n int) (int, error) {
			f, open := gate(rt)
			for i := 1; i < n; i++ {
				f = rt.Submit(noop, inc, f)
			}
			open()
			return asInt(rt.Get(f))
		}},
		{"tree", 2 * leaves, leaves, func(rt *compss.Runtime, n int) (int, error) {
			g, open := gate(rt)
			level := make([]*compss.Future, n/2)
			for i := range level {
				level[i] = rt.Submit(noop, inc, g)
			}
			for len(level) > 1 {
				next := make([]*compss.Future, len(level)/2)
				for i := range next {
					next[i] = rt.Submit(noop, add, level[2*i], level[2*i+1])
				}
				level = next
			}
			open()
			return asInt(rt.Get(level[0]))
		}},
		{"nested", parents * (stormChildren + 1), parents * (stormChildren + 1), func(rt *compss.Runtime, _ int) (int, error) {
			for p := 0; p < parents; p++ {
				rt.Submit(noop, func(tc *compss.TaskCtx, _ []any) (any, error) {
					for c := 0; c < stormChildren; c++ {
						tc.Submit(noop, one)
					}
					return 1, nil
				})
			}
			err := rt.Barrier() // the children are in the graph once this returns
			return rt.Graph().Len(), err
		}},
	}
}

// stormLimit is how long one shape may take before it is given up as stuck;
// a healthy one takes about 10 ms.
const stormLimit = 5 * time.Second

// bounded runs fn, giving it up after stormLimit: the goroutine and the
// runtime it is stuck in are abandoned, and every goroutine's stack goes to
// stderr so that the hang can be read afterwards.
func bounded(name string, fn func() (int, error)) (int, error) {
	type out struct {
		got int
		err error
	}
	done := make(chan out, 1)
	go func() {
		got, err := fn()
		done <- out{got, err}
	}()
	select {
	case o := <-done:
		return o.got, o.err
	case <-time.After(stormLimit):
		dumpStacks(name + " made no progress")
		return 0, fmt.Errorf("%s did not finish within %v", name, stormLimit)
	}
}

// stormRound runs the four shapes, each on a fresh runtime, and returns each
// shape's wall, the round's, and the first runtime error (a failed task or a
// shape that got stuck). A wrong result fails the run here. Zero observers
// are attached unless the round is traced.
func (r *run) stormRound(shapes []stormShape, traced bool) (walls []time.Duration, wall time.Duration, err error) {
	tr := r.tracerFor(traced)
	walls = make([]time.Duration, len(shapes))
	start := time.Now()
	tr.repetition(r.o.workload, func() {
		for i, sh := range shapes {
			so, obs := observe(traced)
			var got int
			var shapeErr error
			t0 := time.Now()
			tr.call("compss", sh.name, func() {
				rt := compss.New(compss.Config{Observers: obs})
				got, shapeErr = bounded(sh.name, func() (int, error) { return sh.run(rt, sh.tasks) })
			})
			walls[i] = time.Since(t0)
			want := sh.want
			if r.o.corrupt {
				want++
			}
			switch {
			case shapeErr != nil:
				if err == nil {
					err = fmt.Errorf("%s: %w", sh.name, shapeErr)
				}
			case got != want:
				r.fail(int64(sh.tasks), "%s: result %d, want %d", sh.name, got, want)
			}
			if traced {
				r.tr.addTasks(r.tr.rep, so.Stats())
			}
		}
	})
	return walls, time.Since(start), err
}

// submitGets times n sequential Submit+Get of one task on the idle runtime
// rt and appends each, in microseconds, to us.
func submitGets(rt *compss.Runtime, n int, us []float64) ([]float64, error) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := rt.Get(rt.Submit(noop, one))
		us = append(us, toUS(time.Since(t0)))
		if err != nil || v.(int) != 1 {
			return us, fmt.Errorf("Submit+Get: value %v, error %v", v, err)
		}
	}
	return us, nil
}

// runStorm is task_storm.
func runStorm(r *run) {
	shapes := stormShapes(r.o.quick)
	perRound := 0
	for _, sh := range shapes {
		perRound += sh.tasks
	}
	// Set-up is one whole round: it grows the heap and the goroutine pool to
	// the size every later round reuses.
	err := r.setUp(func() error {
		_, _, err := r.stormRound(shapes, false)
		return err
	}, func() {})
	if err != nil || r.failed > 0 {
		return
	}

	shapeWalls := make([][]float64, len(shapes))
	var walls, tracedWalls []float64
	reps := map[int]bool{}
	// The Submit+Get probes follow every round rather than the last one: a
	// few thousand sub-microsecond operations in a row all see one state of
	// the collector, and their median flips with it from run to run.
	idle := compss.New(compss.Config{})
	var us []float64
	sectionStart := time.Now()
	r.measure(5, 1<<30, 8, func(traced bool) time.Duration {
		ws, wall, err := r.stormRound(shapes, traced)
		if r.repeatOnce("a round", err) {
			return wall
		}
		r.attempted += int64(perRound)
		if err != nil {
			r.fail(int64(perRound), "%v", err)
			return wall
		}
		if traced {
			tracedWalls = append(tracedWalls, wall.Seconds())
			reps[r.tr.rep] = true
			return wall
		}
		for i, w := range ws {
			shapeWalls[i] = append(shapeWalls[i], w.Seconds())
		}
		walls = append(walls, wall.Seconds())
		if us, err = submitGets(idle, stormGets, us); err != nil {
			r.fail(1, "%v", err)
		}
		r.attempted += stormGets
		return wall
	})
	section := time.Since(sectionStart).Seconds()

	s := r.timing("Submit+Get of one task, as measured", "us", us)
	if p99, ok := tail(us, 0.99); ok {
		r.note("%-28s %12.6g us", "Submit+Get p99", p99)
	}
	r.note("%d rounds of %d tasks in %.2f s", len(walls)+len(tracedWalls), perRound, section)
	r.e2e["latency_ms_p50"] = s.P50 / 1e3
	round := r.timing("round of four shapes, as measured", "ms", millis(walls))
	for i, sh := range shapes {
		r.note("%-28s %12.6g tasks/s", sh.name, ratio(float64(sh.tasks), median(shapeWalls[i])))
	}
	r.e2e["throughput_per_s"] = ratio(float64(perRound), round.P50/1e3)
	r.e2e["good_share"] = ratio(float64(r.attempted-r.failed), float64(r.attempted))

	if r.o.traced {
		r.repetitionLayers(reps, len(walls)+len(tracedWalls), walls, tracedWalls)
	}
}
