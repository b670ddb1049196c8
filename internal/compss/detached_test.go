package compss

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"taskml/internal/exec"
)

// kindLog records each task's event kinds and attempts, in order.
type kindLog struct {
	mu  sync.Mutex
	evs map[int][]string
}

func (l *kindLog) Observe(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.evs == nil {
		l.evs = map[int][]string{}
	}
	l.evs[ev.Task] = append(l.evs[ev.Task], fmt.Sprintf("%s/%d", ev.Kind, ev.Attempt))
}

func (l *kindLog) of(task int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evs[task]
}

// flaky fails its first attempt and returns v from the second, submitting
// a child that nobody waits for on the way.
func flaky(v any) TaskFunc {
	var mu sync.Mutex
	calls := 0
	return func(tc *TaskCtx, _ []any) (any, error) {
		tc.Submit(Opts{Name: "child"}, constTask(1))
		mu.Lock()
		defer mu.Unlock()
		if calls++; calls == 1 {
			return nil, errors.New("first attempt fails")
		}
		return v, nil
	}
}

// A detached task runs, retries and reports to observers as a recorded one
// does, and then it has left nothing behind: no graph node, and nothing in
// any context's submitted list, sync floor or synced set.
func TestDetachedTaskLeavesNothingBehind(t *testing.T) {
	log := &kindLog{}
	rt := New(Config{Workers: 2, DefaultRetries: 1, Observers: []Observer{log}})
	model := rt.Submit(Opts{Name: "model"}, constTask(2))
	if _, err := rt.Get(model); err != nil {
		t.Fatal(err)
	}
	recorded := rt.Submit(Opts{Name: "flaky"}, flaky(3))
	if v, err := rt.Get(recorded); err != nil || v != 3 {
		t.Fatalf("recorded twin = %v, %v; want 3", v, err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	nodes := rt.Graph().Len()
	rt.main.mu.Lock()
	submitted, synced, floor := len(rt.main.submitted), slices.Clone(rt.main.synced), idCount(rt.main.floor)
	rt.main.mu.Unlock()

	d := rt.Detached()
	f := d.Submit(Opts{Name: "flaky"}, flaky(4))
	sum := d.Submit(Opts{Name: "sum"}, func(_ *TaskCtx, args []any) (any, error) {
		return args[0].(int) + args[1].(int), nil
	}, model, f) // a detached task may take a recorded future, and a detached one
	if f.TaskID() >= 0 || sum.TaskID() >= 0 {
		t.Fatalf("detached ids %d, %d: want negative", f.TaskID(), sum.TaskID())
	}
	if v, err := rt.Get(f); err != nil || v != 4 {
		t.Fatalf("detached flaky = %v, %v; want 4 after a retry", v, err)
	}
	if v, err := d.Get(sum); err != nil || v != 6 {
		t.Fatalf("detached sum = %v, %v; want 6", v, err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}

	if got := log.of(f.TaskID()); !reflect.DeepEqual(got, log.of(recorded.TaskID())) {
		t.Fatalf("detached task events %v, recorded twin's %v", got, log.of(recorded.TaskID()))
	}
	if got := log.of(f.TaskID()); len(got) != 7 || got[4] != "retry/1" {
		t.Fatalf("detached task events %v: want one failed attempt, a retry and an end", got)
	}
	if got := rt.Graph().Len(); got != nodes {
		t.Fatalf("graph grew from %d to %d nodes: detached tasks and their children were recorded", nodes, got)
	}
	for _, ft := range rt.Graph().FailureEvents() {
		if ft.Task < 0 || ft.Task >= nodes {
			t.Fatalf("graph records a failure of task %d, which it has no node for", ft.Task)
		}
	}
	rt.main.mu.Lock()
	if len(rt.main.submitted) != submitted || !reflect.DeepEqual(rt.main.synced, synced) || idCount(rt.main.floor) > floor {
		t.Errorf("main context grew: submitted %d → %d, synced %v → %v, floor %d → %d",
			submitted, len(rt.main.submitted), synced, rt.main.synced, floor, idCount(rt.main.floor))
	}
	rt.main.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.submitted != nil || d.floor != nil || d.synced != nil || d.own != nil {
		t.Errorf("the detached context keeps state: submitted %d, floor %v, synced %v, own %v",
			len(d.submitted), d.floor, d.synced, d.own)
	}
}

// A recorded task cannot take a detached future: its graph node could not
// name the dependency, so Submit refuses at the call, before recording.
func TestRecordedSubmitRefusesDetachedFuture(t *testing.T) {
	rt := New(Config{Workers: 1})
	f := rt.Detached().Submit(Opts{Name: "detached"}, constTask(1))
	nodes := rt.Graph().Len()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "detached task") {
			t.Fatalf("recover() = %q, want a panic naming the detached future", msg)
		}
		if got := rt.Graph().Len(); got != nodes {
			t.Fatalf("graph grew from %d to %d nodes before the refusal", nodes, got)
		}
	}()
	rt.Submit(Opts{Name: "recorded"}, constTask(2), []*Future{f})
	t.Fatal("Submit took a detached future")
}

// On a fleet, a detached task's request is anonymous: its output comes home
// in the reply and no worker caches it, while a recorded task's stays.
func TestDetachedTaskLeavesNoWorkerCacheEntry(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = exec.Serve(l, exec.WorkerConfig{Slots: 1}) }()
	defer l.Close()
	backend, err := exec.Dial(exec.RemoteConfig{Peers: []string{l.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	resident := func() int64 { return backend.Workers()[0].ResidentBytes }

	rt := New(Config{Backend: backend})
	seed := rt.SubmitExec(Opts{Name: "sum", Exec: "chain_sum"}, 1.0, 2.0)
	if _, err := rt.Get(seed); err != nil {
		t.Fatal(err)
	}
	held := resident()
	if held == 0 {
		t.Fatal("a recorded task's output left no cache entry: the check below would prove nothing")
	}
	for i := 0; i < 50; i++ {
		f := rt.Detached().SubmitExec(Opts{Name: "sum", Exec: "chain_sum"}, seed, float64(i))
		if v, err := rt.Detached().Get(f); err != nil || v != 3.0+float64(i) {
			t.Fatalf("detached sum %d = %v, %v", i, v, err)
		}
	}
	if got := resident(); got != held {
		t.Fatalf("worker cache holds %d bytes after 50 detached tasks, %d before", got, held)
	}
}
