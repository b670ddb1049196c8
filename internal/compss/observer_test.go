package compss

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// seqObserver validates, for every task, the causal event order the
// Observer API documents (observer.go): Submit < DepsReady < Start(0), each
// attempt closed by End or Failure, Retry(k+1) only after a non-final
// Failure(k), exactly one terminal event, and dep-failed tasks emitting
// only Submit < Failure(-1, "deps", final). A global mutex is enough —
// events of one task must not race each other, and the -race runs of this
// test are what check they don't.
type seqObserver struct {
	mu       sync.Mutex
	state    map[int]string // task -> "submitted" | "ready" | "running" | "failed" | "done"
	attempts map[int]int    // next expected Start attempt
	errs     []string
}

func newSeqObserver() *seqObserver {
	return &seqObserver{state: map[int]string{}, attempts: map[int]int{}}
}

func (o *seqObserver) fail(ev Event, want string) {
	o.errs = append(o.errs, fmt.Sprintf("task %d (%s): %s(attempt %d, final %v) in state %q, want %s",
		ev.Task, ev.Name, ev.Kind, ev.Attempt, ev.Final, o.state[ev.Task], want))
}

// Observe checks ev against its task's state and advances the state.
func (o *seqObserver) Observe(ev Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch ev.Kind {
	case EventSubmit:
		if _, dup := o.state[ev.Task]; dup {
			o.fail(ev, "no prior state")
		}
		o.state[ev.Task] = "submitted"
	case EventDepsReady:
		if o.state[ev.Task] != "submitted" {
			o.fail(ev, `"submitted"`)
		}
		o.state[ev.Task] = "ready"
	case EventStart:
		if s := o.state[ev.Task]; s != "ready" {
			o.fail(ev, `"ready"`)
		}
		if ev.Attempt != o.attempts[ev.Task] {
			o.fail(ev, fmt.Sprintf("attempt %d", o.attempts[ev.Task]))
		}
		o.attempts[ev.Task]++
		o.state[ev.Task] = "running"
	case EventEnd:
		if o.state[ev.Task] != "running" {
			o.fail(ev, `"running"`)
		}
		o.state[ev.Task] = "done"
	case EventRetry:
		if o.state[ev.Task] != "failed" {
			o.fail(ev, `"failed"`)
		}
		if ev.Attempt != o.attempts[ev.Task] {
			o.fail(ev, fmt.Sprintf("upcoming attempt %d", o.attempts[ev.Task]))
		}
		o.state[ev.Task] = "ready"
	case EventFailure:
		if ev.Attempt < 0 { // dependency failure: body never ran
			if o.state[ev.Task] != "submitted" || ev.Mode != "deps" || !ev.Final {
				o.fail(ev, `"submitted" with mode "deps", final`)
			}
			o.state[ev.Task] = "done"
			return
		}
		if o.state[ev.Task] != "running" {
			o.fail(ev, `"running"`)
		}
		if ev.Final {
			o.state[ev.Task] = "done"
		} else {
			o.state[ev.Task] = "failed"
		}
	}
}

// check reports accumulated violations and verifies every task terminated.
func (o *seqObserver) check(t *testing.T, wantTasks int) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, e := range o.errs {
		t.Error(e)
	}
	if len(o.state) != wantTasks {
		t.Errorf("observer saw %d tasks, want %d", len(o.state), wantTasks)
	}
	for id, s := range o.state {
		if s != "done" {
			t.Errorf("task %d ended in state %q, want \"done\"", id, s)
		}
	}
}

// TestObserverCausalOrder drives a concurrent workload through every event
// path — plain success, fan-in dependencies, fault-injected retries, a task
// that panics on every attempt, a permanently failed task and its dep-failed
// dependents —
// and asserts each task's event sequence respects the documented causal
// order. Run under -race, it also proves per-task events never fire
// concurrently.
func TestObserverCausalOrder(t *testing.T) {
	obs := newSeqObserver()
	rt := New(Config{
		Workers:   8,
		Observers: []Observer{obs},
		Faults: &FaultPlan{Faults: []Fault{
			{Name: "flaky", Nth: -1, Attempts: 1, Mode: FaultError},
			{Name: "dead", Nth: -1, Attempts: -1, Mode: FaultError},
			{Name: "panicking", Nth: -1, Attempts: -1, Mode: FaultPanic},
		}},
	})
	body := func(_ *TaskCtx, _ []any) (any, error) {
		time.Sleep(200 * time.Microsecond)
		return 1, nil
	}

	var layer []*Future
	for i := 0; i < 24; i++ {
		layer = append(layer, rt.Submit(Opts{Name: "gen"}, body))
	}
	var mids []*Future
	for i := 0; i < 24; i++ {
		mids = append(mids, rt.Submit(Opts{Name: "flaky", Retries: 2}, body, layer[i%len(layer)]))
	}
	panicking := rt.Submit(Opts{Name: "panicking", Retries: 1}, body, mids[0])
	dead := rt.Submit(Opts{Name: "dead", Retries: 1}, body)
	var poisoned []*Future
	for i := 0; i < 4; i++ {
		poisoned = append(poisoned, rt.Submit(Opts{Name: "victim"}, body, dead))
	}
	sink := rt.Submit(Opts{Name: "sink"}, func(_ *TaskCtx, args []any) (any, error) {
		return len(args), nil
	}, mids)

	if v, err := rt.Get(sink); err != nil || v.(int) != 1 {
		t.Fatalf("sink = %v, %v", v, err)
	}
	if _, err := rt.Get(panicking); err == nil {
		t.Fatal("a task that panics on every attempt must fail")
	}
	for _, p := range poisoned {
		if _, err := rt.Get(p); err == nil {
			t.Fatal("dependent of a failed task must fail")
		}
	}
	rt.WaitAll() // drain; the dead/victim errors are expected

	want := len(layer) + len(mids) + len(poisoned) + 3 // + panicking, dead, sink
	obs.check(t, want)
}

// TestZeroObserverEmitsNothing pins the overhead contract's semantic half:
// a runtime constructed without observers must not retain or invoke any.
func TestZeroObserverEmitsNothing(t *testing.T) {
	rt := New(Config{Workers: 2})
	if rt.obs.Load() != nil {
		t.Fatal("zero-observer runtime holds an observer list")
	}
	f := rt.Submit(Opts{Name: "n"}, constTask(1))
	if _, err := rt.Get(f); err != nil {
		t.Fatal(err)
	}
	if rt.obs.Load() != nil {
		t.Fatal("observer list appeared during execution")
	}
}

// TestObserversViaConfigFeedStats asserts the Config.Observers path drives
// the StatsObserver: one TaskStat per submitted task, no wrapper needed.
func TestObserversViaConfigFeedStats(t *testing.T) {
	s := NewStatsObserver()
	rt := New(Config{Workers: 2, Observers: []Observer{s}})
	for i := 0; i < 6; i++ {
		rt.Submit(Opts{Name: "w"}, constTask(i))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if len(stats) != 6 {
		t.Fatalf("stats = %d, want 6", len(stats))
	}
	for _, st := range stats {
		if st.Attempts != 1 || len(st.PerAttempt) != 1 || st.PerAttempt[0].Outcome != "ok" {
			t.Fatalf("unexpected per-attempt record: %+v", st)
		}
	}
}

// TestStatsObserverFoldsSyntheticStream feeds StatsObserver a hand-built
// event stream with fixed times and checks every TaskStat field: a task
// whose stolen first attempt fails and whose retry ends, a dependency
// failure, and a final panic, interleaved as the runtime would deliver
// them, plus an event for a task that was never submitted.
func TestStatsObserverFoldsSyntheticStream(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	boom := fmt.Errorf("boom")
	s := NewStatsObserver()
	for _, ev := range []Event{
		{Kind: EventSubmit, Task: 1, Name: "a", Attempt: -1, Time: at(0)},
		{Kind: EventSubmit, Task: 2, Name: "b", Attempt: -1, Time: at(1)},
		{Kind: EventDepsReady, Task: 1, Name: "a", Attempt: -1, Time: at(2)},
		{Kind: EventSubmit, Task: 3, Name: "c", Attempt: -1, Time: at(3)},
		{Kind: EventDepsReady, Task: 3, Name: "c", Attempt: -1, Time: at(4)},
		{Kind: EventStart, Task: 1, Name: "a", Attempt: 0, Time: at(5), Stolen: true},
		{Kind: EventStart, Task: 3, Name: "c", Attempt: 0, Time: at(10)},
		{Kind: EventFailure, Task: 1, Name: "a", Attempt: 0, Time: at(12), Err: boom, Mode: "error"},
		{Kind: EventRetry, Task: 1, Name: "a", Attempt: 1, Time: at(13)},
		{Kind: EventEnd, Task: 99, Name: "stray", Attempt: 0, Time: at(14)},
		{Kind: EventStart, Task: 1, Name: "a", Attempt: 1, Time: at(20)},
		{Kind: EventFailure, Task: 3, Name: "c", Attempt: 0, Time: at(25), Err: boom, Mode: "panic", Final: true},
		{Kind: EventEnd, Task: 1, Name: "a", Attempt: 1, Time: at(31)},
		{Kind: EventFailure, Task: 2, Name: "b", Attempt: -1, Time: at(40), Err: boom, Mode: "deps", Final: true},
	} {
		s.Observe(ev)
	}
	want := []TaskStat{
		{
			ID: 3, Name: "c", WaitDeps: ms(1), Queued: ms(6), Duration: ms(15), Attempts: 1,
			PerAttempt: []AttemptStat{{Queued: ms(6), Run: ms(15), Outcome: "panic"}},
			Failed:     true,
		},
		{
			ID: 1, Name: "a", WaitDeps: ms(2), Queued: ms(10), Duration: ms(18), Attempts: 2,
			QueuedStolen: ms(3), Stolen: 1,
			PerAttempt: []AttemptStat{
				{Queued: ms(3), Run: ms(7), Outcome: "error", Stolen: true},
				{Queued: ms(7), Run: ms(11), Outcome: "ok"},
			},
		},
		{ID: 2, Name: "b", WaitDeps: ms(39), Failed: true},
	}
	if got := s.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats =\n%+v\nwant\n%+v", got, want)
	}
}
