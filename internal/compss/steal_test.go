package compss

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestStealStress drives the work-stealing dispatcher through its
// migration paths under deliberately unbalanced load: a hot body that
// submits far more children than a deque starts with (forcing the ring to
// grow), a deep nested chain whose every level fans out (so ready
// tasks keep appearing on whichever worker completed the parent), and a
// burst of external submits racing the bodies (the round-robin placement
// path). Everything must complete with the right values, and the Observer
// event stream must stay causally ordered per task — the contract the
// stealing layer is not allowed to bend.
func TestStealStress(t *testing.T) {
	const (
		hotChildren = 600 // the hot owner's ring must double several times
		chainDepth  = 40
		chainFan    = 3
		burst       = 200
	)
	obs := newSeqObserver()
	rt := New(Config{Workers: 8, Observers: []Observer{obs}})

	one := func(_ *TaskCtx, _ []any) (any, error) { return 1, nil }

	// Hot submitter: one body pushes hotChildren tasks onto its own deque
	// in a tight loop, then gathers them; the ring grows under the owner
	// while thieves drain the head.
	hot := rt.Submit(Opts{Name: "hot"}, func(tc *TaskCtx, _ []any) (any, error) {
		futs := make([]*Future, hotChildren)
		for i := range futs {
			futs[i] = tc.Submit(Opts{Name: "hot_leaf"}, one)
		}
		sum := 0
		for _, f := range futs {
			v, err := tc.Get(f)
			if err != nil {
				return nil, err
			}
			sum += v.(int)
		}
		return sum, nil
	})

	// Deep unbalanced chain: every level submits chainFan leaves plus one
	// deeper link, so one branch stays much longer than its siblings and
	// idle workers must keep stealing to stay busy.
	var chain func(tc *TaskCtx, args []any) (any, error)
	chain = func(tc *TaskCtx, args []any) (any, error) {
		depth := args[0].(int)
		if depth == 0 {
			return 0, nil
		}
		leaves := make([]*Future, chainFan)
		for i := range leaves {
			leaves[i] = tc.Submit(Opts{Name: "chain_leaf"}, one)
		}
		next := tc.Submit(Opts{Name: "chain"}, chain, depth-1)
		sum := 0
		for _, f := range leaves {
			v, err := tc.Get(f)
			if err != nil {
				return nil, err
			}
			sum += v.(int)
		}
		v, err := tc.Get(next)
		if err != nil {
			return nil, err
		}
		return sum + v.(int), nil
	}
	deep := rt.Submit(Opts{Name: "chain"}, chain, chainDepth)

	// External burst racing the two bodies above.
	ext := make([]*Future, burst)
	for i := range ext {
		ext[i] = rt.Submit(Opts{Name: "ext"}, one)
	}

	if v, err := rt.Get(hot); err != nil || v.(int) != hotChildren {
		t.Fatalf("hot = (%v, %v), want %d", v, err, hotChildren)
	}
	if v, err := rt.Get(deep); err != nil || v.(int) != chainDepth*chainFan {
		t.Fatalf("chain = (%v, %v), want %d", v, err, chainDepth*chainFan)
	}
	for i, f := range ext {
		if v, err := rt.Get(f); err != nil || v.(int) != 1 {
			t.Fatalf("ext[%d] = (%v, %v), want 1", i, v, err)
		}
	}
	if err := rt.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}

	// 1 hot + its leaves, chainDepth+1 chain links (depth 0 included) with
	// chainFan leaves per positive-depth link, and the external burst.
	total := 1 + hotChildren + (chainDepth + 1) + chainDepth*chainFan + burst
	obs.check(t, total)
}

// Regression: Opts.Deadline abandonment must release exactly one worker
// slot when the abandoned attempt was *stolen* — the thief's carrier owns
// the slot, not the worker whose deque the task was enqueued on, and the
// timeout handler must charge the right one. The setup pins the steal: the
// parent body holds its own carrier hostage until the child has started,
// so the child (sitting on the parent's deque) can only have been taken by
// another goroutine. Afterwards the pool must still be exactly Workers
// wide: leaked slot → probes overlap beyond Workers; lost slot → probe
// concurrency never reaches Workers.
func TestStolenDeadlineAbandonReleasesExactlyOneSlot(t *testing.T) {
	stats := NewStatsObserver()
	rt := New(Config{Workers: 2, Observers: []Observer{stats}})

	childStarted := make(chan struct{})
	parentStarted := make(chan struct{})
	var childRuns atomic.Int32
	var childID atomic.Int32
	parent := rt.Submit(Opts{Name: "parent"}, func(tc *TaskCtx, _ []any) (any, error) {
		// Signal before submitting the child: the main goroutine must not
		// reach its helping wait until this body owns a carrier's deque, or
		// the helper would run the parent inline (deque-less) and the child
		// would be dispatched locally instead of stolen.
		close(parentStarted)
		child := tc.Submit(Opts{Name: "child", Deadline: 50 * time.Millisecond, Retries: 1},
			func(_ *TaskCtx, _ []any) (any, error) {
				if childRuns.Add(1) == 1 {
					close(childStarted)
					time.Sleep(250 * time.Millisecond) // overruns the deadline
				}
				return 7, nil
			})
		childID.Store(int32(child.TaskID()))
		<-childStarted // keep this carrier busy until the steal happened
		v, err := tc.Get(child)
		if err != nil {
			return nil, err
		}
		return v.(int) + 1, nil
	})

	<-parentStarted
	if v, err := rt.Get(parent); err != nil || v.(int) != 8 {
		t.Fatalf("parent = (%v, %v), want the deadline retry to publish 8", v, err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}

	// The abandoned attempt must carry the steal attribution: it ran while
	// its enqueuing worker's carrier was blocked inside the parent body.
	var childStat *TaskStat
	for _, s := range stats.Stats() {
		if s.ID == int(childID.Load()) {
			cp := s
			childStat = &cp
		}
	}
	if childStat == nil {
		t.Fatal("no stats recorded for the child task")
	}
	if childStat.Attempts != 2 {
		t.Fatalf("child attempts = %d, want 2 (abandoned + retry)", childStat.Attempts)
	}
	if !childStat.PerAttempt[0].Stolen {
		t.Error("abandoned attempt not attributed as stolen")
	}
	if childStat.PerAttempt[0].Outcome != "timeout" {
		t.Errorf("abandoned attempt outcome = %q, want %q", childStat.PerAttempt[0].Outcome, "timeout")
	}

	// Pool exactness: with Workers=2, four sleeping probes must overlap at
	// exactly two. Peak 3+ means the abandonment leaked the thief's slot;
	// a hang (or peak 1) means it released a slot it did not own.
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
	for i := 0; i < 4; i++ {
		rt.Submit(Opts{Name: "probe"}, probe)
	}
	barrier := make(chan error, 1)
	go func() { barrier <- rt.Barrier() }()
	select {
	case err := <-barrier:
		if err != nil {
			t.Fatalf("probe Barrier: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker pool lost a slot to the stolen abandoned attempt")
	}
	if p := peak.Load(); p != 2 {
		t.Fatalf("probe peak concurrency %d with Workers=2, want exactly 2", p)
	}
}
