package compss

import (
	"errors"
	"runtime"
	"testing"

	"taskml/internal/exec"
)

// losingHolder is a fakeFleet that runs requests through the exec registry,
// a chain's head alone: a request that may hold its outputs completes with a
// marker per output, and every Pull loses, so reading a held output reruns
// its producer from lineage.
type losingHolder struct{ fakeFleet }

func (f *losingHolder) ExecuteChain(reqs []*exec.Request) ([]exec.Reply, string, error) {
	replies := make([]exec.Reply, len(reqs))
	for i := range replies[1:] {
		replies[i+1].Err = errors.New("losingHolder runs no chains")
	}
	req := reqs[0]
	vals, err := exec.Invoke(req.Name, req.NOut, req.Args)
	if err == nil && req.Hold {
		for i := range vals {
			vals[i] = &exec.Held{Ref: exec.ValueRef{Session: req.Session, Task: req.TaskID, Out: i}}
		}
	}
	replies[0] = exec.Reply{Vals: vals, Err: err}
	return replies, "fake", nil
}

// heapAfterGC is the live heap once the collector has run.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCompletedTaskLetsGo: on every terminal path a completed task drops its
// body and its argument list, and keeps its outputs.
func TestCompletedTaskLetsGo(t *testing.T) {
	boom := errors.New("boom")
	fail := func(*TaskCtx, []any) (any, error) { return nil, boom }
	echo := func(_ *TaskCtx, args []any) (any, error) { return args[0], nil }
	for _, tc := range []struct {
		name   string
		cfg    Config
		submit func(rt *Runtime) *Future // the task to inspect, once the runtime is idle
	}{
		{"success", Config{}, func(rt *Runtime) *Future {
			return rt.Submit(Opts{}, echo, 1.0)
		}},
		{"failure", Config{}, func(rt *Runtime) *Future {
			return rt.Submit(Opts{}, fail, 1.0)
		}},
		{"dependency failed", Config{}, func(rt *Runtime) *Future {
			return rt.Submit(Opts{}, echo, rt.Submit(Opts{}, fail))
		}},
		{"multi-output", Config{}, func(rt *Runtime) *Future {
			return rt.SubmitN(Opts{}, 2, func(_ *TaskCtx, args []any) ([]any, error) {
				return []any{args[0], args[0]}, nil
			}, 1.0)[1]
		}},
		{"chain follower", Config{Backend: newFakeChains()}, func(rt *Runtime) *Future {
			g, release := gate(rt)
			follower := sum(rt, Opts{}, sum(rt, Opts{}, g), 1.0)
			release()
			return follower
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers = 2
			rt := New(tc.cfg)
			f := tc.submit(rt)
			_ = rt.Barrier()
			st := f.st
			if st.args != nil || st.fn1 != nil || st.fnN != nil {
				t.Fatalf("completed task keeps args %v, fn1 %t, fnN %t",
					st.args, st.fn1 != nil, st.fnN != nil)
			}
			if st.err == nil && st.vals[f.idx] == nil {
				t.Fatal("completed task lost its output")
			}
			if be, ok := tc.cfg.Backend.(*fakeChains); ok {
				if frames := be.framesSeen(); len(frames) != 1 || len(frames[0]) != 2 {
					t.Fatalf("ran in frames %v, want one frame of two", frames)
				}
			}
		})
	}
}

// TestHeldOutputKeepsArgs: a task whose output a worker holds keeps its
// arguments past completion, and a read that finds the output lost reruns
// the task from them.
func TestHeldOutputKeepsArgs(t *testing.T) {
	rt := New(Config{Workers: 2, Backend: &losingHolder{}})
	f := sum(rt, Opts{}, 1.0, 2.0)
	if err := rt.Barrier(); err != nil { // a barrier reads nothing: the output stays held
		t.Fatal(err)
	}
	if _, held := f.st.vals[0].(*exec.Held); !held {
		t.Fatalf("output is %T, want *exec.Held", f.st.vals[0])
	}
	if len(f.st.args) != 2 {
		t.Fatalf("held task's args = %v, want its two arguments", f.st.args)
	}
	mustGet(t, rt, f, 3) // the Pull loses: rebuilt from the kept args
}

// TestCompletedTasksRetainNoInputs: a long-lived runtime retains its tasks'
// bookkeeping, not their inputs — 20 000 tasks, each with a 64 KB argument
// (1.3 GB in all), leave less than 16 MB live.
func TestCompletedTasksRetainNoInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 1.3 GB over its run")
	}
	const tasks, argBytes = 20000, 64 << 10
	rt := New(Config{Workers: 2})
	body := func(_ *TaskCtx, args []any) (any, error) { return len(args[0].([]byte)), nil }
	before := heapAfterGC()
	// Each task is read before the next is submitted, as a server reads each
	// batch it scores: only the bookkeeping of completed tasks accumulates.
	for i := 0; i < tasks; i++ {
		var f *Future
		if i%2 == 0 {
			f = rt.Submit(Opts{Name: "arg"}, body, make([]byte, argBytes))
		} else {
			captured := make([]byte, argBytes)
			f = rt.Submit(Opts{Name: "closure"}, func(*TaskCtx, []any) (any, error) { return len(captured), nil })
		}
		if v, err := rt.Get(f); err != nil || v != argBytes {
			t.Fatalf("task %d = %v, %v", i, v, err)
		}
	}
	grown := int64(heapAfterGC()) - int64(before)
	runtime.KeepAlive(rt)
	t.Logf("%d completed tasks retain %.1f MB (%.0f B a task)", tasks, float64(grown)/(1<<20), float64(grown)/tasks)
	if grown >= 16<<20 {
		t.Fatalf("%d completed tasks retain %.1f MB, want < 16 MB", tasks, float64(grown)/(1<<20))
	}
}

// TestSubmitBytesPerTask holds what a recorded Submit+Get costs in memory:
// the task itself (its share of the executor's slabs) plus its graph
// record, written once into the graph's chunked store. A store that
// re-copies its records as it grows allocates each record several times
// over, about 1 KB a task here. TotalAlloc counts every byte handed out, so
// the bound holds whatever the collector does meanwhile.
func TestSubmitBytesPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	const n, perTask = 20000, 640
	rt := New(Config{Workers: 4})
	noop := func(*TaskCtx, []any) (any, error) { return nil, nil }
	run := func(k int) {
		for i := 0; i < k; i++ {
			if _, err := rt.Get(rt.Submit(Opts{Name: "noop"}, noop)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(1000) // carriers started, slabs and the first chunks in place
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(n)
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / n
	if got > perTask {
		t.Fatalf("%d B allocated a Submit+Get over %d tasks, want at most %d", got, n, perTask)
	}
	t.Logf("%d B allocated a Submit+Get over %d tasks", got, n)
}
