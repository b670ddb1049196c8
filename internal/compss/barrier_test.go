package compss

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Barrier returns only once every task ran — a grandchild nobody waited for
// included — and the next main submission is ordered after every earlier
// task in the graph, not only after the main program's own.
func TestBarrierOrdersEveryEarlierTask(t *testing.T) {
	rt := New(Config{Workers: 2})
	submitted := make(chan struct{})
	var ran atomic.Bool
	rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
		tc.Submit(Opts{Name: "child"}, func(tc *TaskCtx, _ []any) (any, error) {
			tc.Submit(Opts{Name: "grandchild"}, func(_ *TaskCtx, _ []any) (any, error) {
				time.Sleep(20 * time.Millisecond)
				ran.Store(true)
				return nil, nil
			})
			close(submitted) // and return without waiting for it
			return nil, nil
		})
		return nil, nil
	})
	<-submitted
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("Barrier returned before the grandchild ran")
	}
	n := rt.Graph().Len()
	next := rt.Submit(Opts{Name: "next"}, constTask(nil))
	tk, _ := rt.Graph().Task(next.TaskID())
	deps := map[int]bool{}
	for _, d := range tk.Deps {
		if !d.ViaMaster || !d.OrderOnly {
			t.Fatalf("dep %+v after Barrier is not an order-only sync dep", d)
		}
		deps[d.Task] = true
	}
	if len(deps) != n || len(tk.Deps) != n {
		t.Fatalf("next depends on %+v, want each of the %d earlier tasks once", tk.Deps, n)
	}
	for id := 0; id < n; id++ {
		if !deps[id] {
			t.Fatalf("next does not depend on task %d: %+v", id, tk.Deps)
		}
	}
}

// Two goroutines submit failing tasks through the main context at once,
// racing waits on it: the error WaitAll and Barrier return once both are
// done is the one of the lowest task id, which here finishes last.
func TestWaitReturnsLowestIDError(t *testing.T) {
	const perGoroutine = 8
	for _, wait := range []struct {
		name string
		fn   func(*Runtime) error
	}{{"Barrier", (*Runtime).Barrier}, {"WaitAll", (*Runtime).WaitAll}} {
		t.Run(wait.name, func(t *testing.T) {
			rt := New(Config{Workers: 2})
			fail := func(tc *TaskCtx, _ []any) (any, error) {
				time.Sleep(time.Duration(2*perGoroutine-tc.parent) * time.Millisecond)
				return nil, fmt.Errorf("task %d failed", tc.parent)
			}
			var mu sync.Mutex
			lowest := -1
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perGoroutine; i++ {
						id := rt.Main().Submit(Opts{Name: "bad"}, fail).TaskID()
						mu.Lock()
						if lowest < 0 || id < lowest {
							lowest = id
						}
						mu.Unlock()
					}
				}()
			}
			submitted := make(chan struct{})
			go func() {
				wg.Wait()
				close(submitted)
			}()
			for racing := true; racing; {
				select {
				case <-submitted:
					racing = false
				default:
					_ = wait.fn(rt) // whatever it saw so far
				}
			}
			var te *TaskError
			if err := wait.fn(rt); !errors.As(err, &te) || te.ID != lowest {
				t.Fatalf("%s = %v, want the failure of task %d", wait.name, err, lowest)
			}
		})
	}
}

// TestBarrierNestedStress runs the task_storm benchmark's nested shape —
// parents that fire and forget their children, then Barrier — on fresh
// runtimes, round after round, each Barrier under a watchdog: a lost child
// or a lost wake-up fails the test with every goroutine's stack.
func TestBarrierNestedStress(t *testing.T) {
	const parents, children = 100, 100
	span := 3 * time.Second
	if testing.Short() {
		span = 300 * time.Millisecond
	}
	rounds := 0
	for end := time.Now().Add(span); time.Now().Before(end); rounds++ {
		rt := New(Config{})
		for p := 0; p < parents; p++ {
			rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
				for c := 0; c < children; c++ {
					tc.Submit(Opts{Name: "child"}, constTask(1))
				}
				return 1, nil
			})
		}
		done := make(chan error, 1)
		go func() { done <- rt.Barrier() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: %v", rounds, err)
			}
		case <-time.After(5 * time.Second):
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("round %d: Barrier made no progress in 5 s\n%s", rounds, buf)
		}
		if n := rt.Graph().Len(); n != parents*(children+1) {
			t.Fatalf("round %d: graph holds %d tasks, want %d", rounds, n, parents*(children+1))
		}
	}
	t.Logf("%d rounds in %v", rounds, span)
}
