//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package compss

// The runtime in virtual time: each test builds a runtime inside a
// testing/synctest bubble, whose clock moves only when every goroutine in it
// is blocked, so a makespan reads as the schedule's, exactly, in
// milliseconds of wall. A lost wake-up is a deadlock panic with every
// goroutine's stack, not a watchdog timeout. Run with
//
//	GOEXPERIMENT=synctest go test -run Virtual ./internal/compss/
//
// synctest.Run needs the synchronous timer channels of asynctimerchan=0;
// go.mod's go 1.22 would otherwise select the asynchronous ones.

import (
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"
)

// sleepTask returns a body that sleeps d of the bubble's clock.
func sleepTask(d time.Duration) TaskFunc {
	return func(_ *TaskCtx, _ []any) (any, error) {
		time.Sleep(d)
		return nil, nil
	}
}

// makespan runs f in a bubble and returns how much virtual time it took.
// The result crosses out of the bubble through an atomic: go1.24's Run
// returning is no synchronisation the race detector sees.
func makespan(f func()) time.Duration {
	var took atomic.Int64
	synctest.Run(func() {
		start := time.Now()
		f()
		took.Store(int64(time.Since(start)))
	})
	return time.Duration(took.Load())
}

// Five 1 s tasks on 2 slots take 3 s and a 1 s join after them 1 s more. A
// runtime used outside any bubble runs first, its waits and its carriers
// parked on the wall clock until they exit: a bubble's runtime must block
// only on objects it made, never on ones the process kept from an earlier
// runtime, or its clock would never move.
func TestVirtualMakespanAfterPlainRuntime(t *testing.T) {
	plain := New(Config{Workers: 2})
	for i := 0; i < 50; i++ {
		if _, err := plain.Get(plain.Submit(Opts{Name: "plain"}, sleepTask(100*time.Microsecond))); err != nil {
			t.Fatal(err)
		}
	}
	untilIdle(t, plain)
	took := makespan(func() {
		rt := New(Config{Workers: 2})
		var work []any
		for i := 0; i < 5; i++ {
			work = append(work, rt.Submit(Opts{Name: "work"}, sleepTask(time.Second)))
		}
		if _, err := rt.Get(rt.Submit(Opts{Name: "join"}, sleepTask(time.Second), work...)); err != nil {
			t.Error(err)
		}
	})
	if took != 4*time.Second {
		t.Fatalf("makespan %v, want 4s", took)
	}
}

// A parent on 2 slots waits for four 0.5 s children: it hands its slot back
// while it waits, so the children run two at a time and take 1 s.
func TestVirtualNestedChildrenShareTheParentsSlot(t *testing.T) {
	took := makespan(func() {
		rt := New(Config{Workers: 2})
		parent := rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
			kids := make([]*Future, 4)
			for i := range kids {
				kids[i] = tc.Submit(Opts{Name: "child"}, sleepTask(500*time.Millisecond))
			}
			_, err := tc.GetAll(kids)
			return nil, err
		})
		if _, err := rt.Get(parent); err != nil {
			t.Error(err)
		}
	})
	if took != time.Second {
		t.Fatalf("makespan %v, want 1s", took)
	}
}

// The nested task_storm shape with work in the children: parents that fire
// and forget 1 ms children, then Barrier, round after round on fresh
// runtimes. A greedy schedule of W of work on P slots with a critical path
// of D ends by W/P + D; a slot left idle while a child waits overruns it.
func TestVirtualBarrierStormWithinBudget(t *testing.T) {
	const (
		rounds, parents, children, slots = 5, 20, 20, 2
		child                            = time.Millisecond
	)
	budget := child*parents*children/slots + child
	var worst time.Duration
	for round := 0; round < rounds; round++ {
		took := makespan(func() {
			rt := New(Config{Workers: slots})
			for p := 0; p < parents; p++ {
				rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
					for c := 0; c < children; c++ {
						tc.Submit(Opts{Name: "child"}, sleepTask(child))
					}
					return nil, nil
				})
			}
			if err := rt.Barrier(); err != nil {
				t.Error(err)
			}
		})
		if took > budget {
			t.Fatalf("round %d: Barrier took %v of virtual time, budget %v", round, took, budget)
		}
		worst = max(worst, took)
	}
	t.Logf("slowest of %d rounds: %v of virtual time, budget %v", rounds, worst, budget)
}

// A carrier parks for carrierLinger once the queues are empty and then
// exits: it is live one nanosecond before the linger ends and gone at its
// end, and synctest.Run returns only once it has left. The main program
// waits on the body, not on the task, so the carrier is the one that runs
// it: a Get would help, and a task it ran inline would keep the carrier
// lingering from before the task began.
func TestVirtualCarrierLingerExit(t *testing.T) {
	synctest.Run(func() {
		rt := New(Config{Workers: 2})
		ran := make(chan struct{})
		f := rt.Submit(Opts{Name: "work"}, func(_ *TaskCtx, _ []any) (any, error) {
			time.Sleep(time.Second)
			close(ran)
			return nil, nil
		})
		<-ran
		if _, err := rt.Get(f); err != nil {
			t.Error(err)
			return
		}
		time.Sleep(carrierLinger - time.Nanosecond)
		synctest.Wait()
		if n := rt.ex.nLive.Load(); n == 0 {
			t.Errorf("no carrier live %v after the last task", carrierLinger-time.Nanosecond)
		}
		time.Sleep(time.Nanosecond)
		synctest.Wait()
		if n := rt.ex.nLive.Load(); n != 0 {
			t.Errorf("%d carriers live %v after the last task", n, carrierLinger)
		}
	})
}

// A signal sent at the instant a carrier's linger expires is served, not
// dropped or left behind: the carrier's timer and the submit that signals it
// fire at the same virtual time, so the signaler sometimes pops the
// carrier's parker after the timer fired and before the carrier took itself
// off the idler list. The carrier must then take the token and look for
// work, and the runtime must come to rest with no token left. The two
// interleave only with GOMAXPROCS ≥ 2, in about one round in 400 at 2: a
// carrier that exits on its timer without taking the token fails some of
// the 5000 rounds (≈ 0.2 s of wall).
func TestVirtualSignalAtLingerExpiry(t *testing.T) {
	for round := 0; round < 5000; round++ {
		synctest.Run(func() {
			rt := New(Config{Workers: 1})
			ran := make(chan struct{})
			f := rt.Submit(Opts{Name: "first"}, func(_ *TaskCtx, _ []any) (any, error) {
				close(ran)
				return nil, nil
			})
			<-ran
			if _, err := rt.Get(f); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(carrierLinger)
			if _, err := rt.Get(rt.Submit(Opts{Name: "at-expiry"}, constTask(1))); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * carrierLinger)
			synctest.Wait()
			if err := rt.ex.atRest(); err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		})
	}
}
