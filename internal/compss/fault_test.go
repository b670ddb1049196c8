package compss

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func failTask(err error) TaskFunc {
	return func(_ *TaskCtx, _ []any) (any, error) { return nil, err }
}

// Regression: tasks that never run because a dependency failed used to
// return before the stats recorder saw them, so the summary undercounted
// the workflow. Every submitted task must produce exactly one TaskStat.
func TestDepFailedTasksStillRecordStats(t *testing.T) {
	so := NewStatsObserver()
	rt := New(Config{Workers: 2, Observers: []Observer{so}})
	boom := errors.New("boom")
	bad := rt.Submit(Opts{Name: "bad"}, failTask(boom))
	d1 := rt.Submit(Opts{Name: "dep"}, constTask(1), bad)
	d2 := rt.Submit(Opts{Name: "dep"}, constTask(2), d1)
	rt.Submit(Opts{Name: "dep"}, constTask(3), d2)
	if err := rt.Barrier(); err == nil {
		t.Fatal("Barrier should report the failure")
	}
	stats := so.Stats()
	if got, want := len(stats), rt.Graph().Len(); got != want {
		t.Fatalf("recorded %d stats for %d tasks", got, want)
	}
	for _, s := range stats {
		if s.Name == "dep" {
			if s.Attempts != 0 {
				t.Fatalf("dep-failed task reports %d attempts, want 0", s.Attempts)
			}
			if s.Duration != 0 {
				t.Fatalf("dep-failed task reports nonzero Duration %v", s.Duration)
			}
		}
	}
	if !strings.Contains(so.Summary(), "dep") {
		t.Fatal("Summary lost the dep-failed tasks")
	}
}

// Regression: a failure propagating through a chain of dependents used to
// wrap "dependency failed" once per hop. The collapsed error mentions it
// once, errors.As recovers both the root TaskError and the consumer's
// DepError, and errors.Is still matches the root cause.
func TestDependencyErrorCollapses(t *testing.T) {
	rt := New(Config{Workers: 2})
	boom := errors.New("boom")
	a := rt.Submit(Opts{Name: "root"}, failTask(boom))
	b := rt.Submit(Opts{Name: "mid"}, constTask(1), a)
	c := rt.Submit(Opts{Name: "mid"}, constTask(2), b)
	d := rt.Submit(Opts{Name: "leaf"}, constTask(3), c)
	_, err := rt.Get(d)
	if err == nil {
		t.Fatal("leaf of a failed chain must error")
	}
	if n := strings.Count(err.Error(), "dependency failed"); n != 1 {
		t.Fatalf("want exactly one 'dependency failed' in %q, got %d", err, n)
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("no TaskError in %v", err)
	}
	if te.ID != a.TaskID() || te.Name != "root" {
		t.Fatalf("TaskError points at task %d (%s), want the root %d", te.ID, te.Name, a.TaskID())
	}
	var de *DepError
	if !errors.As(err, &de) {
		t.Fatalf("no DepError in %v", err)
	}
	if de.ID != d.TaskID() {
		t.Fatalf("DepError points at task %d, want the consumer %d", de.ID, d.TaskID())
	}
	if !errors.Is(err, boom) {
		t.Fatalf("errors.Is lost the root cause in %v", err)
	}
}

func TestRetryRecoversInjectedFault(t *testing.T) {
	so := NewStatsObserver()
	rt := New(Config{Workers: 2, Observers: []Observer{so}, Faults: &FaultPlan{Faults: []Fault{
		{Name: "r", Nth: 0, Attempts: 2, Mode: FaultError},
	}}})
	f := rt.Submit(Opts{Name: "r", Retries: 2}, constTask(42))
	v, err := rt.Get(f)
	if err != nil {
		t.Fatalf("task should recover on its third attempt: %v", err)
	}
	if v != 42 {
		t.Fatalf("retried task published %v, want the real body's 42", v)
	}
	evs := rt.Graph().FailureEvents()
	if len(evs) != 2 {
		t.Fatalf("want 2 failure events, got %d", len(evs))
	}
	for k, ev := range evs {
		if ev.Task != f.TaskID() || ev.Attempt != k || ev.Mode != "error" {
			t.Fatalf("event %d = %+v", k, ev)
		}
	}
	if got := rt.Graph().Attempts(f.TaskID()); got != 3 {
		t.Fatalf("graph reports %d attempts, want 3", got)
	}
	for _, s := range so.Stats() {
		if s.ID == f.TaskID() && s.Attempts != 3 {
			t.Fatalf("stat reports %d attempts, want 3", s.Attempts)
		}
	}
}

func TestRetriesExhaustedSurfacesInjectedFault(t *testing.T) {
	rt := New(Config{Workers: 1, Faults: &FaultPlan{Faults: []Fault{
		{Name: "doomed", Nth: 0, Attempts: -1, Mode: FaultError},
	}}})
	f := rt.Submit(Opts{Name: "doomed", Retries: 2}, constTask(1))
	_, err := rt.Get(f)
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("want ErrInjectedFault after exhausting retries, got %v", err)
	}
	if n := len(rt.Graph().FailureEvents()); n != 3 {
		t.Fatalf("want 3 failed attempts recorded, got %d", n)
	}
}

func TestFailFastIgnoresRetries(t *testing.T) {
	rt := New(Config{Workers: 1, OnTaskFailure: FailFast, DefaultRetries: 5,
		Faults: &FaultPlan{Faults: []Fault{{Name: "x", Nth: 0, Attempts: 1}}}})
	f := rt.Submit(Opts{Name: "x", Retries: 3}, constTask(1))
	_, err := rt.Get(f)
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("FailFast must surface the first failure, got %v", err)
	}
	if n := len(rt.Graph().FailureEvents()); n != 1 {
		t.Fatalf("FailFast ran %d attempts, want exactly 1", n)
	}
	tk, _ := rt.Graph().Task(f.TaskID())
	if tk.Retries != 0 {
		t.Fatalf("graph records retry budget %d under FailFast, want 0", tk.Retries)
	}
}

func TestPanicFaultRecordsPanicMode(t *testing.T) {
	rt := New(Config{Workers: 1, Faults: &FaultPlan{Faults: []Fault{
		{Name: "p", Nth: 0, Attempts: 1, Mode: FaultPanic},
	}}})
	f := rt.Submit(Opts{Name: "p", Retries: 1}, constTask(5))
	v, err := rt.Get(f)
	if err != nil || v != 5 {
		t.Fatalf("got (%v, %v), want recovery to 5", v, err)
	}
	evs := rt.Graph().FailureEvents()
	if len(evs) != 1 || evs[0].Mode != "panic" {
		t.Fatalf("events = %+v, want one panic-mode failure", evs)
	}
}

// Degrade: after the retry budget is spent, a task with a declared fallback
// publishes it instead of failing; dependents consume the fallback and
// Barrier reports a clean run (the degradation is visible in the graph).
func TestDegradePublishesFallback(t *testing.T) {
	so := NewStatsObserver()
	rt := New(Config{Workers: 2, OnTaskFailure: Degrade, Observers: []Observer{so},
		Faults: &FaultPlan{Faults: []Fault{{Name: "d", Nth: 0, Attempts: -1}}}})
	d := rt.Submit(Opts{Name: "d", Retries: 1, Fallback: 40}, constTask(999))
	sum := rt.Submit(Opts{Name: "consume"}, func(_ *TaskCtx, args []any) (any, error) {
		return args[0].(int) + 2, nil
	}, d)
	v, err := rt.Get(sum)
	if err != nil {
		t.Fatalf("dependent of a degraded task must run: %v", err)
	}
	if v != 42 {
		t.Fatalf("dependent saw %v, want fallback 40 + 2", v)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatalf("Barrier must be clean after degradation, got %v", err)
	}
	if !rt.Graph().IsDegraded(d.TaskID()) {
		t.Fatal("graph does not mark the task degraded")
	}
	var seen bool
	for _, s := range so.Stats() {
		if s.ID == d.TaskID() {
			seen = true
			if !s.Degraded {
				t.Fatal("TaskStat does not flag the degraded task")
			}
		}
	}
	if !seen {
		t.Fatal("degraded task missing from stats")
	}
}

func TestDegradeWithoutFallbackStillFails(t *testing.T) {
	rt := New(Config{Workers: 1, OnTaskFailure: Degrade,
		Faults: &FaultPlan{Faults: []Fault{{Name: "nf", Nth: 0, Attempts: -1}}}})
	f := rt.Submit(Opts{Name: "nf", Retries: 1}, constTask(1))
	if _, err := rt.Get(f); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("no fallback declared: failure must surface, got %v", err)
	}
}

// Satellite regression: a nested child failing under retry must not deadlock
// blockingWait's slot release/reacquire with a single worker. The child's own
// retry recovers it while the parent is parked in Get.
func TestChildRetryUnderOneWorkerDoesNotDeadlock(t *testing.T) {
	rt := New(Config{Workers: 1, Faults: &FaultPlan{Faults: []Fault{
		{Name: "child", Nth: 0, Attempts: 2, Mode: FaultError},
	}}})
	parent := rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
		c := tc.Submit(Opts{Name: "child", Retries: 2}, constTask(11))
		v, err := tc.Get(c)
		if err != nil {
			return nil, err
		}
		return v.(int) + 1, nil
	})
	v, err := rt.Get(parent)
	if err != nil || v != 12 {
		t.Fatalf("got (%v, %v), want 12", v, err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatalf("Barrier after recovered child retry: %v", err)
	}
}

// A fire-and-forget child that fails permanently fails the parent's attempt;
// the parent's retry resubmits the child (a fresh occurrence that the plan
// leaves alone) and succeeds. Barrier must not dredge up the absorbed
// first-occurrence failure.
func TestParentRetryAbsorbsChildFailure(t *testing.T) {
	rt := New(Config{Workers: 1, Faults: &FaultPlan{Faults: []Fault{
		{Name: "child", Nth: 0, Attempts: -1, Mode: FaultError},
	}}})
	var out atomic.Int32
	parent := rt.Submit(Opts{Name: "parent", Retries: 1}, func(tc *TaskCtx, _ []any) (any, error) {
		tc.Submit(Opts{Name: "child"}, func(_ *TaskCtx, _ []any) (any, error) {
			out.Store(21)
			return nil, nil
		})
		return "done", nil
	})
	v, err := rt.Get(parent)
	if err != nil || v != "done" {
		t.Fatalf("got (%v, %v), want the parent's retry to succeed", v, err)
	}
	if out.Load() != 21 {
		t.Fatal("resubmitted child never ran its real body")
	}
	if err := rt.Barrier(); err != nil {
		t.Fatalf("Barrier reports an absorbed child failure: %v", err)
	}
}

// Barrier must still report the first *unrecovered* error in submission
// order: a task that failed once but was retried to success does not count,
// and of two permanent failures the earlier submission wins even if it
// finishes later.
func TestBarrierFirstErrorOrderAfterRetries(t *testing.T) {
	rt := New(Config{Workers: 2, Faults: &FaultPlan{Faults: []Fault{
		{Name: "flaky", Nth: 0, Attempts: 1, Mode: FaultError},
	}}})
	rt.Submit(Opts{Name: "flaky", Retries: 2}, constTask(1))
	bad1 := errors.New("bad1")
	bad2 := errors.New("bad2")
	rt.Submit(Opts{Name: "bad1"}, func(_ *TaskCtx, _ []any) (any, error) {
		time.Sleep(80 * time.Millisecond) // finish after bad2
		return nil, bad1
	})
	rt.Submit(Opts{Name: "bad2"}, failTask(bad2))
	err := rt.Barrier()
	if !errors.Is(err, bad1) {
		t.Fatalf("Barrier returned %v, want bad1 (first failed submission)", err)
	}
	if errors.Is(err, bad2) {
		t.Fatal("Barrier leaked the later failure")
	}
}

// Fault occurrence counting is per name: EveryNth targets the Nth submission
// of any name, while Name+Nth targets one specific occurrence.
func TestFaultMatchingByOccurrence(t *testing.T) {
	rt := New(Config{Workers: 1, Faults: &FaultPlan{Faults: []Fault{
		{Name: "w", Nth: 1, Attempts: -1, Mode: FaultError},
	}}})
	f0 := rt.Submit(Opts{Name: "w"}, constTask(0))
	f1 := rt.Submit(Opts{Name: "w"}, constTask(1))
	f2 := rt.Submit(Opts{Name: "w"}, constTask(2))
	if _, err := rt.Get(f0); err != nil {
		t.Fatalf("occurrence 0 should survive: %v", err)
	}
	if _, err := rt.Get(f1); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("occurrence 1 should be killed, got %v", err)
	}
	if _, err := rt.Get(f2); err != nil {
		t.Fatalf("occurrence 2 should survive: %v", err)
	}
}

// Regression (review): Opts.Retries < 0 is an explicit opt-out that beats a
// positive Config.DefaultRetries — exactly one attempt runs.
func TestNegativeRetriesOptsOutOfDefault(t *testing.T) {
	rt := New(Config{Workers: 1, DefaultRetries: 3, Faults: &FaultPlan{Faults: []Fault{
		{Name: "once", Nth: 0, Attempts: -1, Mode: FaultError},
	}}})
	f := rt.Submit(Opts{Name: "once", Retries: -1}, constTask(1))
	if _, err := rt.Get(f); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("want the injected failure to surface, got %v", err)
	}
	if n := len(rt.Graph().FailureEvents()); n != 1 {
		t.Fatalf("ran %d attempts, want exactly 1", n)
	}
	tk, _ := rt.Graph().Task(f.TaskID())
	if tk.Retries != 0 {
		t.Fatalf("graph records retry budget %d, want 0", tk.Retries)
	}
}

// Runtime-level defaults apply when Opts stay zero, and per-task Opts win.
func TestDefaultRetriesFromConfig(t *testing.T) {
	rt := New(Config{Workers: 1, DefaultRetries: 2, Faults: &FaultPlan{Faults: []Fault{
		{Name: "a", Nth: 0, Attempts: 2, Mode: FaultError},
	}}})
	f := rt.Submit(Opts{Name: "a"}, constTask(9))
	v, err := rt.Get(f)
	if err != nil || v != 9 {
		t.Fatalf("DefaultRetries not honoured: (%v, %v)", v, err)
	}
	tk, _ := rt.Graph().Task(f.TaskID())
	if tk.Retries != 2 {
		t.Fatalf("graph records retry budget %d, want the default 2", tk.Retries)
	}
}
