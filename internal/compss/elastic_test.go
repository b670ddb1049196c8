package compss

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"taskml/internal/exec"
)

// fakeFleet is an exec.Backend that also implements exec.Fleet, with a
// settable slot total: the compss runtime must size its slot pool from it
// and re-target the pool when the watcher fires.
type fakeFleet struct {
	mu       sync.Mutex
	slots    int
	ceiling  int
	watchers map[int]func(int)
	nextW    int
}

func (f *fakeFleet) ExecuteTask(*exec.Request) ([]any, string, error) {
	return nil, "", errors.New("fakeFleet executes nothing")
}
func (f *fakeFleet) Close() error                { return nil }
func (f *fakeFleet) Join(string) (string, error) { return "", errors.New("fake") }
func (f *fakeFleet) Drain(string) error          { return errors.New("fake") }
func (f *fakeFleet) Leave(string) error          { return errors.New("fake") }
func (f *fakeFleet) Workers() []exec.WorkerInfo  { return nil }

func (f *fakeFleet) SlotTotal() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slots
}
func (f *fakeFleet) SlotCeiling() int { return f.ceiling }

func (f *fakeFleet) Watch(fn func(int)) func() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.watchers == nil {
		f.watchers = map[int]func(int){}
	}
	id := f.nextW
	f.nextW++
	f.watchers[id] = fn
	return func() {
		f.mu.Lock()
		delete(f.watchers, id)
		f.mu.Unlock()
	}
}

func (f *fakeFleet) setSlots(n int) {
	f.mu.Lock()
	f.slots = n
	var fns []func(int)
	for _, fn := range f.watchers {
		fns = append(fns, fn)
	}
	f.mu.Unlock()
	for _, fn := range fns {
		fn(n)
	}
}

var _ exec.Fleet = (*fakeFleet)(nil)

// holdingFleet is a fakeFleet that is also an exec.Holder: it holds nothing
// and records the sessions it is told to forget.
type holdingFleet struct {
	fakeFleet
	forgot []uint64 // under fakeFleet.mu
}

func (f *holdingFleet) Pull([]*exec.Held) error { return exec.ErrLost }

func (f *holdingFleet) Forget(session uint64) {
	f.mu.Lock()
	f.forgot = append(f.forgot, session)
	f.mu.Unlock()
}

// state returns how many watchers are subscribed and how often session was
// forgotten.
func (f *holdingFleet) state(session uint64) (watchers, forgotten int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.forgot {
		if s == session {
			forgotten++
		}
	}
	return len(f.watchers), forgotten
}

var _ exec.Holder = (*holdingFleet)(nil)

// TestElasticCapacity pins the membership→parallelism contract: a runtime
// over an elastic backend starts with the fleet's live slot total as its
// effective parallelism, and a slot-total change mid-run re-targets the
// pool without a new runtime.
func TestElasticCapacity(t *testing.T) {
	fleet := &fakeFleet{slots: 1, ceiling: 4}
	rt := New(Config{Workers: 1, Backend: fleet})
	if got := rt.sem.capacity(); got != 1 {
		t.Fatalf("initial pool capacity = %d, want 1 (live slot total)", got)
	}

	started := make(chan int, 4)
	release := make(chan struct{})
	var futs []*Future
	for i := 0; i < 4; i++ {
		i := i
		futs = append(futs, rt.Submit(Opts{Name: "hold"}, func(_ *TaskCtx, _ []any) (any, error) {
			started <- i
			<-release
			return i, nil
		}))
	}

	// One slot: exactly one body starts; the other three queue.
	<-started
	select {
	case i := <-started:
		t.Fatalf("task %d started beyond the 1-slot capacity", i)
	case <-time.After(100 * time.Millisecond):
	}

	// The fleet grows to 4 slots: the watcher re-targets the pool and the
	// three queued bodies start without any new submission.
	fleet.setSlots(4)
	if got := rt.sem.capacity(); got != 4 {
		t.Fatalf("pool capacity after growth = %d, want 4", got)
	}
	for n := 1; n < 4; n++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d bodies running after the fleet grew to 4 slots", n)
		}
	}

	// Shrink below the configured base: the pool clamps at Workers, and
	// slots already held are never revoked — the run finishes cleanly.
	fleet.setSlots(0)
	if got := rt.sem.capacity(); got != 1 {
		t.Fatalf("pool capacity after shrink = %d, want the Workers base 1", got)
	}
	close(release)
	for _, f := range futs {
		if _, err := rt.Get(f); err != nil {
			t.Fatal(err)
		}
	}
}

// gcUntil runs the collector until cond holds, for at most five seconds.
func gcUntil(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReleaseWhenUnreachable: once a runtime and its futures are dropped, the
// collector releases it — its Watch subscription is cancelled and its backend
// forgets its session, exactly once. A Future still held keeps the runtime,
// so nothing is forgotten and Get through it still answers.
func TestReleaseWhenUnreachable(t *testing.T) {
	fleet := &holdingFleet{fakeFleet: fakeFleet{slots: 1, ceiling: 1}}
	run := func() *Future {
		rt := New(Config{Workers: 1, Backend: fleet})
		f := rt.Submit(Opts{Name: "one"}, func(*TaskCtx, []any) (any, error) { return 1, nil })
		if _, err := rt.Get(f); err != nil {
			t.Fatal(err)
		}
		return f
	}

	dropped := func() uint64 { return run().st.ctx0.rt.execSession }()
	released := func() bool { w, n := fleet.state(dropped); return w == 0 && n >= 1 }
	if !gcUntil(released) {
		w, n := fleet.state(dropped)
		t.Fatalf("after the collector: %d watchers, session forgotten %d times; want 0 and 1", w, n)
	}
	runtime.GC()
	if _, n := fleet.state(dropped); n != 1 {
		t.Fatalf("session forgotten %d times, want once", n)
	}

	f := run()
	kept := f.st.ctx0.rt.execSession
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if w, n := fleet.state(kept); w != 1 || n != 0 {
		t.Fatalf("a held Future: %d watchers, session forgotten %d times; want 1 and 0", w, n)
	}
	if v, err := f.st.ctx0.rt.Get(f); err != nil || v != 1 {
		t.Fatalf("Get through the held Future = %v, %v", v, err)
	}
}
