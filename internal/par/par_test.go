package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lend registers a lender of n slots for the rest of the test: n = 0 forces
// every region onto its caller.
func lend(t *testing.T, n int) Slots {
	t.Helper()
	s := make(Slots, n)
	t.Cleanup(Lend(s))
	return s
}

// peakProbe tracks how many chunks run at once.
type peakProbe struct{ cur, peak atomic.Int32 }

func (p *peakProbe) enter() {
	n := p.cur.Add(1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			return
		}
	}
}

func (p *peakProbe) exit() { p.cur.Add(-1) }

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, slots := range []int{-1, 0, 1, 7} { // -1: no lender, spare cores
		func() {
			if slots >= 0 {
				defer Lend(make(Slots, slots))()
			}
			for _, n := range []int{0, 1, 7, 64, 1000} {
				for _, grain := range []int{1, 3, 64, 2000} {
					hits := make([]int32, n)
					For(n, grain, func(lo, hi int) {
						if lo < 0 || hi > n || lo >= hi {
							t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
					})
					for i, h := range hits {
						if h != 1 {
							t.Fatalf("slots=%d n=%d grain=%d: index %d visited %d times", slots, n, grain, i, h)
						}
					}
				}
			}
		}()
	}
}

func TestDoRunsEveryThunk(t *testing.T) {
	for _, slots := range []int{0, 3} {
		func() {
			defer Lend(make(Slots, slots))()
			var ran [9]int32
			thunks := make([]func(), len(ran))
			for i := range thunks {
				thunks[i] = func() { atomic.AddInt32(&ran[i], 1) }
			}
			Do(thunks...)
			for i, r := range ran {
				if r != 1 {
					t.Fatalf("slots=%d: thunk %d ran %d times", slots, i, r)
				}
			}
		}()
	}
	Do() // zero thunks must be a no-op
}

// A region never runs more goroutines than its caller plus the slots it
// could borrow, and every borrowed slot is back once it returns.
func TestLenderBoundsConcurrency(t *testing.T) {
	s := lend(t, 2)
	var p peakProbe
	For(256, 1, func(lo, hi int) {
		p.enter()
		for i := 0; i < 2000; i++ { // keep the chunk alive long enough to overlap
			_ = i * i
		}
		p.exit()
	})
	if peak := p.peak.Load(); peak > 3 {
		t.Fatalf("observed %d concurrent chunks with 2 slots to borrow", peak)
	}
	if len(s) != 0 {
		t.Fatalf("%d slots still borrowed after the region returned", len(s))
	}
}

// With every slot taken the loop is one serial call on the caller.
func TestNoFreeSlotRunsSerialOnCaller(t *testing.T) {
	lend(t, 0)
	var calls [][2]int // unsynchronised: must be single-goroutine
	For(10, 3, func(lo, hi int) { calls = append(calls, [2]int{lo, hi}) })
	if len(calls) != 1 || calls[0] != [2]int{0, 10} {
		t.Fatalf("chunks without a free slot: %v, want one call over [0,10)", calls)
	}
	var ran []int
	Do(func() { ran = append(ran, 0) }, func() { ran = append(ran, 1) })
	if len(ran) != 2 || ran[0] != 0 || ran[1] != 1 {
		t.Fatalf("thunks without a free slot ran %v, want [0 1] in order", ran)
	}
}

// Slots are borrowed lender by lender, in registration order, and each
// helper's slot goes back to the lender it came from.
func TestHelpersBorrowFromEveryLender(t *testing.T) {
	a, b := lend(t, 1), lend(t, 2)
	var wg sync.WaitGroup
	var full atomic.Bool
	wg.Add(4)
	For(4, 1, func(lo, hi int) {
		wg.Done()
		waitOrFail(t, &wg) // four chunks at once: the caller and three helpers
		// The first chunk past the barrier looks before any helper is done.
		if len(a) == 1 && len(b) == 2 {
			full.Store(true)
		}
	})
	if !full.Load() {
		t.Error("the region did not hold one slot of the first lender and two of the second")
	}
	if len(a) != 0 || len(b) != 0 {
		t.Fatalf("slots still borrowed after the region: %d and %d", len(a), len(b))
	}
}

// Withdrawing the last lender gives regions back their spare cores.
func TestWithdrawRestoresSpareCores(t *testing.T) {
	withdraw := Lend(make(Slots))
	var calls atomic.Int32
	For(8, 1, func(lo, hi int) { calls.Add(1) })
	if calls.Load() != 1 {
		t.Fatalf("%d calls while the only lender had no free slot, want 1", calls.Load())
	}
	withdraw()
	withdraw() // idempotent
	if ls := lenders.Load(); ls != nil && len(*ls) != 0 {
		t.Fatalf("%d lenders registered after withdraw", len(*ls))
	}
	calls.Store(0)
	For(8, 1, func(lo, hi int) { calls.Add(1) })
	want := int32(8) // one a chunk, on the caller and a spare core
	if runtime.GOMAXPROCS(0) == 1 {
		want = 1 // no spare core: one serial call
	}
	if calls.Load() != want {
		t.Fatalf("%d calls after the withdraw, want %d", calls.Load(), want)
	}
}

func TestNestedForComposesWithoutDeadlock(t *testing.T) {
	lend(t, 1)
	var total int64
	For(8, 1, func(lo, hi int) {
		For(100, 10, func(l, h int) {
			atomic.AddInt64(&total, int64(h-l))
		})
	})
	if total != 800 {
		t.Fatalf("nested total = %d, want 800", total)
	}
}

// Many goroutines (as the compss worker pool would) hammering For at once:
// they share the registered slots, stay within them, and every loop
// completes.
func TestConcurrentCallersShareOnePool(t *testing.T) {
	s := lend(t, 3)
	var wg sync.WaitGroup
	var grand int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local int64
			For(500, 7, func(lo, hi int) {
				atomic.AddInt64(&local, int64(hi-lo))
			})
			atomic.AddInt64(&grand, local)
		}()
	}
	wg.Wait()
	if grand != 16*500 {
		t.Fatalf("grand total = %d, want %d", grand, 16*500)
	}
	if len(s) != 0 {
		t.Fatalf("%d slots still borrowed", len(s))
	}
}

func TestForPanicSurfacesOnCaller(t *testing.T) {
	s := lend(t, 3)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the chunk panic to re-surface on the caller")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("panic value = %v", r)
		}
		if len(s) != 0 {
			t.Fatalf("%d slots still borrowed after the panic", len(s))
		}
	}()
	For(64, 1, func(lo, hi int) {
		if lo == 13 {
			panic("boom")
		}
	})
}

// SetLimit is kept for the benchmark module only: it changes nothing.
func TestSetLimitDoesNothing(t *testing.T) {
	lend(t, 0)
	SetLimit(8)
	var calls int
	For(8, 1, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Fatalf("SetLimit(8) gave a region helpers: %d calls", calls)
	}
}

// waitOrFail waits for wg, failing the test after five seconds instead of
// hanging it.
func waitOrFail(t *testing.T, wg *sync.WaitGroup) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("chunks never ran at the same time")
	}
}
