package compss

import (
	"errors"
	"runtime"
	"testing"

	"taskml/internal/exec"
)

// losingHolder is a holdingFleet that runs requests through the exec
// registry: a request that may hold its outputs completes with a marker per
// output, and every Pull loses, so reading a held output reruns its producer
// from lineage.
type losingHolder struct{ holdingFleet }

func (f *losingHolder) ExecuteTask(req *exec.Request) ([]any, string, error) {
	vals, err := exec.Invoke(req.Name, req.NOut, req.Args)
	if err != nil || !req.Hold {
		return vals, "fake", err
	}
	for i := range vals {
		vals[i] = &exec.Held{Ref: exec.ValueRef{Session: req.Session, Task: req.TaskID, Out: i}}
	}
	return vals, "fake", nil
}

// heapAfterGC is the live heap once the collector has run.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCompletedTaskLetsGo: on every terminal path a completed task drops its
// body, its argument list and its fallback, and keeps its outputs.
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
			return rt.Submit(Opts{Fallback: 2.0}, fail, 1.0)
		}},
		{"degrade", Config{OnTaskFailure: Degrade}, func(rt *Runtime) *Future {
			return rt.Submit(Opts{Fallback: 2.0}, fail, 1.0)
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
			if st.args != nil || st.fn1 != nil || st.fnN != nil || st.fallback != nil {
				t.Fatalf("completed task keeps args %v, fn1 %t, fnN %t, fallback %v",
					st.args, st.fn1 != nil, st.fnN != nil, st.fallback)
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
