package compss

import "testing"

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
