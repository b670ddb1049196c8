package compss

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"taskml/internal/graph"
)

// value task returning v after optionally recording execution order.
func constTask(v any) TaskFunc {
	return func(_ *TaskCtx, _ []any) (any, error) { return v, nil }
}

func TestSubmitAndGet(t *testing.T) {
	rt := New(Config{Workers: 2})
	f := rt.Submit(Opts{Name: "c", Cost: 1}, constTask(42))
	v, err := rt.Get(f)
	if err != nil || v.(int) != 42 {
		t.Fatalf("Get = %v, %v", v, err)
	}
}

func TestDependencyValueFlows(t *testing.T) {
	rt := New(Config{Workers: 2})
	a := rt.Submit(Opts{Name: "a"}, constTask(10))
	b := rt.Submit(Opts{Name: "b"}, func(_ *TaskCtx, args []any) (any, error) {
		return args[0].(int) * 3, nil
	}, a)
	v, err := rt.Get(b)
	if err != nil || v.(int) != 30 {
		t.Fatalf("Get = %v, %v", v, err)
	}
}

func TestSliceOfFuturesResolves(t *testing.T) {
	rt := New(Config{Workers: 4})
	var fs []*Future
	for i := 1; i <= 4; i++ {
		fs = append(fs, rt.Submit(Opts{Name: "p"}, constTask(i)))
	}
	sum := rt.Submit(Opts{Name: "sum"}, func(_ *TaskCtx, args []any) (any, error) {
		total := 0
		for _, v := range args[0].([]any) {
			total += v.(int)
		}
		return total, nil
	}, fs)
	v, err := rt.Get(sum)
	if err != nil || v.(int) != 10 {
		t.Fatalf("sum = %v, %v", v, err)
	}
}

func TestGraphCapturesDeps(t *testing.T) {
	rt := New(Config{Workers: 2})
	a := rt.Submit(Opts{Name: "a", Cost: 1, OutBytes: 100}, constTask(1))
	b := rt.Submit(Opts{Name: "b", Cost: 2}, constTask(2), a)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	g := rt.Graph()
	if g.Len() != 2 {
		t.Fatalf("graph has %d tasks, want 2", g.Len())
	}
	tb, _ := g.Task(b.TaskID())
	if len(tb.Deps) != 1 || tb.Deps[0].Task != a.TaskID() || tb.Deps[0].ViaMaster {
		t.Fatalf("deps of b = %+v", tb.Deps)
	}
	ta, _ := g.Task(a.TaskID())
	if ta.Cost != 1 || ta.OutBytes != 100 || ta.Cores != 1 {
		t.Fatalf("task a = %+v", ta)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateFutureArgDedupes(t *testing.T) {
	rt := New(Config{Workers: 2})
	a := rt.Submit(Opts{Name: "a"}, constTask(1))
	b := rt.Submit(Opts{Name: "b"}, func(_ *TaskCtx, args []any) (any, error) {
		return args[0].(int) + args[1].(int), nil
	}, a, a)
	v, err := rt.Get(b)
	if err != nil || v.(int) != 2 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	tb, _ := rt.Graph().Task(b.TaskID())
	if len(tb.Deps) != 1 {
		t.Fatalf("duplicate dep not merged: %+v", tb.Deps)
	}
}

func TestGetRaisesFloorViaMaster(t *testing.T) {
	rt := New(Config{Workers: 2})
	a := rt.Submit(Opts{Name: "a", Cost: 1}, constTask(1))
	if _, err := rt.Get(a); err != nil {
		t.Fatal(err)
	}
	// b does not take a as an argument, yet must be ordered after the sync.
	b := rt.Submit(Opts{Name: "b", Cost: 1}, constTask(2))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	tb, _ := rt.Graph().Task(b.TaskID())
	if len(tb.Deps) != 1 || tb.Deps[0].Task != a.TaskID() || !tb.Deps[0].ViaMaster {
		t.Fatalf("floor dep missing or wrong: %+v", tb.Deps)
	}
}

func TestArgDepUpgradedToViaMasterAfterGet(t *testing.T) {
	rt := New(Config{Workers: 2})
	a := rt.Submit(Opts{Name: "a"}, constTask(1))
	if _, err := rt.Get(a); err != nil {
		t.Fatal(err)
	}
	b := rt.Submit(Opts{Name: "b"}, func(_ *TaskCtx, args []any) (any, error) {
		return args[0], nil
	}, a)
	if _, err := rt.Get(b); err != nil {
		t.Fatal(err)
	}
	tb, _ := rt.Graph().Task(b.TaskID())
	if len(tb.Deps) != 1 || !tb.Deps[0].ViaMaster {
		t.Fatalf("dep should be via-master after Get: %+v", tb.Deps)
	}
}

func TestErrorPropagatesToDependents(t *testing.T) {
	rt := New(Config{Workers: 2})
	boom := errors.New("boom")
	a := rt.Submit(Opts{Name: "a"}, func(_ *TaskCtx, _ []any) (any, error) { return nil, boom })
	b := rt.Submit(Opts{Name: "b"}, constTask(2), a)
	c := rt.Submit(Opts{Name: "c"}, constTask(3), b)
	_, err := rt.Get(c)
	if !errors.Is(err, boom) {
		t.Fatalf("error did not propagate through the chain: %v", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	rt := New(Config{Workers: 2})
	f := rt.Submit(Opts{Name: "p"}, func(_ *TaskCtx, _ []any) (any, error) {
		panic("kaboom")
	})
	_, err := rt.Get(f)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

func TestBarrierReturnsFirstError(t *testing.T) {
	rt := New(Config{Workers: 4})
	rt.Submit(Opts{Name: "ok"}, constTask(1))
	rt.Submit(Opts{Name: "bad"}, func(_ *TaskCtx, _ []any) (any, error) {
		return nil, errors.New("bad task")
	})
	err := rt.Barrier()
	if err == nil || !strings.Contains(err.Error(), "bad task") {
		t.Fatalf("Barrier = %v", err)
	}
}

func TestParallelismIsBounded(t *testing.T) {
	rt := New(Config{Workers: 3})
	var cur, peak int64
	gate := make(chan struct{})
	for i := 0; i < 12; i++ {
		rt.Submit(Opts{Name: "w"}, func(_ *TaskCtx, _ []any) (any, error) {
			n := atomic.AddInt64(&cur, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
					break
				}
			}
			<-gate
			atomic.AddInt64(&cur, -1)
			return nil, nil
		})
	}
	close(gate)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Fatalf("peak concurrency %d exceeds 3 workers", peak)
	}

	// After bodies parked in Get or WaitAll — each hands its slot back while
	// it helps and takes one again — the pool is still exactly Workers wide:
	// a leaked slot lets the probes overlap beyond Workers, a lost one keeps
	// them from reaching it (or hangs them).
	waitAll := func(tc *TaskCtx, f *Future) (any, error) {
		if err := tc.WaitAll(); err != nil {
			return nil, err
		}
		return tc.Get(f) // resolved: keeps the slot
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("parked-workers=%d", workers), func(t *testing.T) {
			parkedThenProbed(t, workers, (*TaskCtx).Get)
		})
		t.Run(fmt.Sprintf("parked-in-WaitAll-workers=%d", workers), func(t *testing.T) {
			parkedThenProbed(t, workers, waitAll)
		})
	}
}

// parkedThenProbed runs a parent that parks in wait on a child another
// goroutine stole, the child parking in wait on a grandchild of its own, then
// a burst of probes that must overlap at exactly workers.
func parkedThenProbed(t *testing.T, workers int, wait func(*TaskCtx, *Future) (any, error)) {
	stats := NewStatsObserver()
	rt := New(Config{Workers: workers, Observers: []Observer{stats}})
	parentStarted := make(chan struct{})
	var childID atomic.Int32
	parent := rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
		// Signal before submitting the child: the main goroutine must not
		// help until this body owns a carrier's deque, or it would run the
		// parent inline, deque-less, and the child would not be stolen.
		close(parentStarted)
		child := tc.Submit(Opts{Name: "child"}, func(tc *TaskCtx, _ []any) (any, error) {
			v, err := wait(tc, tc.Submit(Opts{Name: "grandchild"}, constTask(6)))
			if err != nil {
				return nil, err
			}
			return v.(int) + 1, nil
		})
		childID.Store(int32(child.TaskID()))
		for tc.wkr.size.Load() > 0 { // keep the deque's owner off it until the steal
			runtime.Gosched()
		}
		v, err := wait(tc, child)
		if err != nil {
			return nil, err
		}
		return v.(int) + 1, nil
	})
	within := func(what string, wait func() error) {
		done := make(chan error, 1)
		go func() { done <- wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s hung: the pool lost a slot to a parked body", what)
		}
	}
	<-parentStarted
	within("parent", func() error {
		v, err := rt.Get(parent)
		if err == nil && v != 8 {
			err = fmt.Errorf("got %v, want 8", v)
		}
		return err
	})
	stolen := false
	for _, s := range stats.Stats() {
		if s.ID == int(childID.Load()) {
			stolen = s.PerAttempt[0].Stolen
		}
	}
	if !stolen {
		t.Fatal("the child's attempt was not stolen")
	}

	var cur, peak atomic.Int32
	probe := func(_ *TaskCtx, _ []any) (any, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(60 * time.Millisecond)
		cur.Add(-1)
		return nil, nil
	}
	for i := 0; i < 2*workers; i++ {
		rt.Submit(Opts{Name: "probe"}, probe)
	}
	within("probe Barrier", rt.Barrier)
	if p := peak.Load(); p != int32(workers) {
		t.Fatalf("probe peak concurrency %d with Workers=%d, want exactly %d", p, workers, workers)
	}
}

func TestNestedTasksRecordParent(t *testing.T) {
	rt := New(Config{Workers: 4})
	parent := rt.Submit(Opts{Name: "fold", Cost: 1}, func(tc *TaskCtx, _ []any) (any, error) {
		c := tc.Submit(Opts{Name: "epoch", Cost: 2}, constTask(7))
		v, err := tc.Get(c)
		if err != nil {
			return nil, err
		}
		return v.(int) + 1, nil
	})
	v, err := rt.Get(parent)
	if err != nil || v.(int) != 8 {
		t.Fatalf("nested result = %v, %v", v, err)
	}
	var child graph.Task
	for _, tk := range rt.Graph().Tasks() {
		if tk.Name == "epoch" {
			child = tk
		}
	}
	if child.Parent != parent.TaskID() {
		t.Fatalf("child parent = %d, want %d", child.Parent, parent.TaskID())
	}
}

func TestNestedSyncIsLocal(t *testing.T) {
	// Two parent tasks each Get their own child; the sibling parent's tasks
	// must NOT gain floor deps from the other context.
	rt := New(Config{Workers: 4})
	mk := func(name string) *Future {
		return rt.Submit(Opts{Name: name, Cost: 1}, func(tc *TaskCtx, _ []any) (any, error) {
			c1 := tc.Submit(Opts{Name: name + "_e1", Cost: 1}, constTask(1))
			if _, err := tc.Get(c1); err != nil {
				return nil, err
			}
			c2 := tc.Submit(Opts{Name: name + "_e2", Cost: 1}, constTask(2))
			return tc.Get(c2)
		})
	}
	fa, fb := mk("fa"), mk("fb")
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	// fa_e2 must depend only on tasks inside fa's context.
	for _, tk := range rt.Graph().Tasks() {
		if tk.Name == "fa_e2" {
			for _, d := range tk.Deps {
				dep, _ := rt.Graph().Task(d.Task)
				if dep.Parent == fb.TaskID() || d.Task == fb.TaskID() {
					t.Fatalf("fa_e2 leaked a dep into fb's context: %+v", tk.Deps)
				}
			}
		}
		if tk.Name == "fb_e2" {
			for _, d := range tk.Deps {
				dep, _ := rt.Graph().Task(d.Task)
				if dep.Parent == fa.TaskID() || d.Task == fa.TaskID() {
					t.Fatalf("fb_e2 leaked a dep into fa's context: %+v", tk.Deps)
				}
			}
		}
	}
}

func TestNestingDoesNotDeadlockWithOneWorker(t *testing.T) {
	// A parent that synchronises on its child while the pool has a single
	// slot: the slot must be released during the Get.
	rt := New(Config{Workers: 1})
	f := rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
		c := tc.Submit(Opts{Name: "child"}, constTask(5))
		return tc.Get(c)
	})
	v, err := rt.Get(f)
	if err != nil || v.(int) != 5 {
		t.Fatalf("Get = %v, %v", v, err)
	}
}

func TestDeepNestingOneWorker(t *testing.T) {
	rt := New(Config{Workers: 1})
	var spawn func(depth int) TaskFunc
	spawn = func(depth int) TaskFunc {
		return func(tc *TaskCtx, _ []any) (any, error) {
			if depth == 0 {
				return 1, nil
			}
			c := tc.Submit(Opts{Name: fmt.Sprintf("d%d", depth)}, spawn(depth-1))
			v, err := tc.Get(c)
			if err != nil {
				return nil, err
			}
			return v.(int) + 1, nil
		}
	}
	f := rt.Submit(Opts{Name: "root"}, spawn(5))
	v, err := rt.Get(f)
	if err != nil || v.(int) != 6 {
		t.Fatalf("deep nesting = %v, %v", v, err)
	}
}

func TestParentWaitsForFireAndForgetChildren(t *testing.T) {
	rt := New(Config{Workers: 4})
	var childRan atomic.Bool
	f := rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
		tc.Submit(Opts{Name: "child"}, func(_ *TaskCtx, _ []any) (any, error) {
			childRan.Store(true)
			return nil, nil
		})
		return "done", nil // returns without waiting
	})
	if _, err := rt.Get(f); err != nil {
		t.Fatal(err)
	}
	if !childRan.Load() {
		t.Fatal("parent future resolved before its child completed")
	}
}

func TestNestedChildErrorFailsParent(t *testing.T) {
	rt := New(Config{Workers: 4})
	f := rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
		tc.Submit(Opts{Name: "child"}, func(_ *TaskCtx, _ []any) (any, error) {
			return nil, errors.New("child exploded")
		})
		return "ok", nil
	})
	_, err := rt.Get(f)
	if err == nil || !strings.Contains(err.Error(), "child exploded") {
		t.Fatalf("parent must surface unhandled child error, got %v", err)
	}
}

func TestSubmitN(t *testing.T) {
	rt := New(Config{Workers: 2})
	fs := rt.SubmitN(Opts{Name: "split"}, 3, func(_ *TaskCtx, _ []any) ([]any, error) {
		return []any{"a", "b", "c"}, nil
	})
	if len(fs) != 3 {
		t.Fatalf("SubmitN returned %d futures", len(fs))
	}
	for i, want := range []string{"a", "b", "c"} {
		v, err := rt.Get(fs[i])
		if err != nil || v.(string) != want {
			t.Fatalf("output %d = %v, %v", i, v, err)
		}
	}
	if rt.Graph().Len() != 1 {
		t.Fatalf("SubmitN must record one task, got %d", rt.Graph().Len())
	}
}

func TestSubmitNWrongArityErrors(t *testing.T) {
	rt := New(Config{Workers: 2})
	fs := rt.SubmitN(Opts{Name: "bad"}, 2, func(_ *TaskCtx, _ []any) ([]any, error) {
		return []any{"only one"}, nil
	})
	if _, err := rt.Get(fs[0]); err == nil {
		t.Fatal("want arity error")
	}
}

func TestWaitAllLocalBarrier(t *testing.T) {
	rt := New(Config{Workers: 4})
	f := rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
		for i := 0; i < 3; i++ {
			tc.Submit(Opts{Name: "w", Cost: 1}, constTask(i))
		}
		if err := tc.WaitAll(); err != nil {
			return nil, err
		}
		after := tc.Submit(Opts{Name: "after", Cost: 1}, constTask(99))
		return tc.Get(after)
	})
	if _, err := rt.Get(f); err != nil {
		t.Fatal(err)
	}
	// "after" must have floor deps on the three "w" tasks.
	for _, tk := range rt.Graph().Tasks() {
		if tk.Name == "after" {
			vm := 0
			for _, d := range tk.Deps {
				if d.ViaMaster {
					vm++
				}
			}
			if vm < 3 {
				t.Fatalf("after has %d via-master deps, want >= 3: %+v", vm, tk.Deps)
			}
		}
	}
}

func TestGetAll(t *testing.T) {
	rt := New(Config{Workers: 4})
	var fs []*Future
	for i := 0; i < 5; i++ {
		fs = append(fs, rt.Submit(Opts{Name: "v"}, constTask(i)))
	}
	vals, err := rt.Main().GetAll(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v.(int) != i {
			t.Fatalf("GetAll[%d] = %v", i, v)
		}
	}
}

func TestDefaultNameAndCores(t *testing.T) {
	rt := New(Config{})
	f := rt.Submit(Opts{}, constTask(nil))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	tk, _ := rt.Graph().Task(f.TaskID())
	if tk.Name != "task" || tk.Cores != 1 {
		t.Fatalf("defaults not applied: %+v", tk)
	}
}

func TestGPUOptsRecorded(t *testing.T) {
	rt := New(Config{Workers: 2})
	f := rt.Submit(Opts{Name: "train", GPUs: 4, Cores: 2}, constTask(nil))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	tk, _ := rt.Graph().Task(f.TaskID())
	if tk.GPUs != 4 || tk.Cores != 2 {
		t.Fatalf("resource demand not recorded: %+v", tk)
	}
}

func TestManyConcurrentSubmitters(t *testing.T) {
	// Nested tasks submit from many goroutines; the graph must stay
	// consistent and the runtime must not race (run with -race).
	rt := New(Config{Workers: 8})
	root := rt.Submit(Opts{Name: "root"}, func(tc *TaskCtx, _ []any) (any, error) {
		var fs []*Future
		for i := 0; i < 20; i++ {
			fs = append(fs, tc.Submit(Opts{Name: "branch"}, func(tc2 *TaskCtx, _ []any) (any, error) {
				leaf := tc2.Submit(Opts{Name: "leaf"}, constTask(1))
				return tc2.Get(leaf)
			}))
		}
		total := 0
		for _, f := range fs {
			v, err := tc.Get(f)
			if err != nil {
				return nil, err
			}
			total += v.(int)
		}
		return total, nil
	})
	v, err := rt.Get(root)
	if err != nil || v.(int) != 20 {
		t.Fatalf("root = %v, %v", v, err)
	}
	if err := rt.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	if rt.Graph().Len() != 41 {
		t.Fatalf("graph has %d tasks, want 41", rt.Graph().Len())
	}
}

func BenchmarkSubmitGetOverhead(b *testing.B) {
	rt := New(Config{Workers: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := rt.Submit(Opts{Name: "noop"}, constTask(nil))
		if _, err := rt.Get(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFanOut100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt := New(Config{Workers: 8})
		fs := make([]*Future, 100)
		for j := range fs {
			fs[j] = rt.Submit(Opts{Name: "w"}, constTask(j))
		}
		if err := rt.Barrier(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStatsRecording(t *testing.T) {
	so := NewStatsObserver()
	rt := New(Config{Workers: 2, Observers: []Observer{so}})
	for i := 0; i < 3; i++ {
		rt.Submit(Opts{Name: "work"}, constTask(i))
	}
	rt.Submit(Opts{Name: "other"}, constTask(nil))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	stats := so.Stats()
	if len(stats) != 4 {
		t.Fatalf("recorded %d stats, want 4", len(stats))
	}
	for _, s := range stats {
		if s.Duration < 0 || s.Queued < 0 || s.WaitDeps < 0 {
			t.Fatalf("negative timing: %+v", s)
		}
	}
	byName := so.ByName()
	if len(byName) != 2 {
		t.Fatalf("ByName = %v", byName)
	}
	summary := so.Summary()
	if !strings.Contains(summary, "work") || !strings.Contains(summary, "other") {
		t.Fatalf("summary:\n%s", summary)
	}
}

// A task blocked on a slow dependency must account that time as WaitDeps,
// not Queued: the split distinguishes graph stalls from capacity stalls.
func TestStatsSplitDependencyVsSlotWait(t *testing.T) {
	so := NewStatsObserver()
	rt := New(Config{Workers: 2, Observers: []Observer{so}})
	slow := rt.Submit(Opts{Name: "slow"}, func(_ *TaskCtx, _ []any) (any, error) {
		time.Sleep(30 * time.Millisecond)
		return 1, nil
	})
	rt.Submit(Opts{Name: "dep"}, constTask(2), slow)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	stats := so.Stats()
	var dep *TaskStat
	for i := range stats {
		if stats[i].Name == "dep" {
			dep = &stats[i]
		}
	}
	if dep == nil {
		t.Fatal("no stat for dependent task")
	}
	if dep.WaitDeps < 10*time.Millisecond {
		t.Fatalf("WaitDeps = %v, want most of the 30ms dependency stall", dep.WaitDeps)
	}
	if dep.Queued > dep.WaitDeps {
		t.Fatalf("Queued (%v) should not exceed WaitDeps (%v) with free workers", dep.Queued, dep.WaitDeps)
	}
}

func TestStatsDetachedObserverSeesNothing(t *testing.T) {
	so := NewStatsObserver()
	rt := New(Config{Workers: 2}) // so is NOT attached
	rt.Submit(Opts{Name: "w"}, constTask(nil))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if len(so.Stats()) != 0 {
		t.Fatal("stats recorded by an unattached observer")
	}
}

func TestFloorDepIsOrderOnlyButArgDepIsNot(t *testing.T) {
	rt := New(Config{Workers: 2})
	a := rt.Submit(Opts{Name: "a"}, constTask(1))
	if _, err := rt.Get(a); err != nil {
		t.Fatal(err)
	}
	// b consumes a's value: via-master, NOT order-only.
	b := rt.Submit(Opts{Name: "b"}, func(_ *TaskCtx, args []any) (any, error) {
		return args[0], nil
	}, a)
	// c merely comes after the sync: order-only.
	c := rt.Submit(Opts{Name: "c"}, constTask(2))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	tb, _ := rt.Graph().Task(b.TaskID())
	if len(tb.Deps) != 1 || !tb.Deps[0].ViaMaster || tb.Deps[0].OrderOnly {
		t.Fatalf("arg dep after sync: %+v", tb.Deps)
	}
	tc, _ := rt.Graph().Task(c.TaskID())
	foundOrder := false
	for _, d := range tc.Deps {
		if d.Task == a.TaskID() && d.OrderOnly && d.ViaMaster {
			foundOrder = true
		}
	}
	if !foundOrder {
		t.Fatalf("floor dep not order-only: %+v", tc.Deps)
	}
}
