package compss

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"taskml/internal/exec"
)

// fakeFleet is an exec.Backend that reports a settable slot total, as
// exec.Remote does: the compss runtime sizes its slot pool from it at New.
// It executes nothing, holds nothing and records the sessions it is told to
// forget.
type fakeFleet struct {
	mu     sync.Mutex
	slots  int
	forgot []uint64
}

func (f *fakeFleet) ExecuteChain([]*exec.Request) ([]exec.Reply, string, error) {
	return nil, "", errors.New("fakeFleet executes nothing")
}
func (f *fakeFleet) Close() error { return nil }

func (f *fakeFleet) SlotTotal() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slots
}

func (f *fakeFleet) setSlots(n int) {
	f.mu.Lock()
	f.slots = n
	f.mu.Unlock()
}

func (f *fakeFleet) Pull([]*exec.Held) error { return exec.ErrLost }

func (f *fakeFleet) Forget(session uint64) {
	f.mu.Lock()
	f.forgot = append(f.forgot, session)
	f.mu.Unlock()
}

// forgotten returns how often session was forgotten.
func (f *fakeFleet) forgotten(session uint64) (n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.forgot {
		if s == session {
			n++
		}
	}
	return n
}

// TestCapacityFixedAtNew pins the capacity contract: a runtime over a
// backend reporting SlotTotal() = N runs max(Workers, N) bodies at once, and
// a slot total that changes after New changes nothing.
func TestCapacityFixedAtNew(t *testing.T) {
	for _, tc := range []struct{ workers, slots, later int }{
		{workers: 1, slots: 3, later: 6}, // the fleet sets the width, then grows
		{workers: 3, slots: 1, later: 0}, // Workers sets it, then the fleet empties
	} {
		fleet := &fakeFleet{slots: tc.slots}
		rt := New(Config{Workers: tc.workers, Backend: fleet})
		width := max(tc.workers, tc.slots)

		started := make(chan int, width+2)
		release := make(chan struct{})
		var futs []*Future
		for i := 0; i < width+2; i++ {
			futs = append(futs, rt.Submit(Opts{Name: "hold"}, func(_ *TaskCtx, _ []any) (any, error) {
				started <- i
				<-release
				return i, nil
			}))
		}
		for n := 0; n < width; n++ {
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Fatalf("%+v: only %d bodies running, want %d", tc, n, width)
			}
		}
		noMore := func(when string) {
			select {
			case i := <-started:
				t.Fatalf("%+v: task %d started beyond %d slots %s", tc, i, width, when)
			case <-time.After(100 * time.Millisecond):
			}
		}
		noMore("at New")
		fleet.setSlots(tc.later)
		noMore("after the slot total changed")

		close(release)
		for _, f := range futs {
			if _, err := rt.Get(f); err != nil {
				t.Fatal(err)
			}
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
// collector releases it — its backend forgets its session, exactly once. A
// Future still held keeps the runtime, so nothing is forgotten and Get
// through it still answers.
func TestReleaseWhenUnreachable(t *testing.T) {
	fleet := &fakeFleet{slots: 1}
	run := func() *Future {
		rt := New(Config{Workers: 1, Backend: fleet})
		f := rt.Submit(Opts{Name: "one"}, func(*TaskCtx, []any) (any, error) { return 1, nil })
		if _, err := rt.Get(f); err != nil {
			t.Fatal(err)
		}
		return f
	}

	dropped := func() uint64 { return run().st.ctx0.rt.execSession }()
	if !gcUntil(func() bool { return fleet.forgotten(dropped) >= 1 }) {
		t.Fatalf("after the collector: session forgotten %d times; want 1", fleet.forgotten(dropped))
	}
	runtime.GC()
	if n := fleet.forgotten(dropped); n != 1 {
		t.Fatalf("session forgotten %d times, want once", n)
	}

	f := run()
	kept := f.st.ctx0.rt.execSession
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := fleet.forgotten(kept); n != 0 {
		t.Fatalf("a held Future: session forgotten %d times; want 0", n)
	}
	if v, err := f.st.ctx0.rt.Get(f); err != nil || v != 1 {
		t.Fatalf("Get through the held Future = %v, %v", v, err)
	}
}
