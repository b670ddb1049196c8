package compss

// A live runtime lends its idle slots to the kernels' parallel regions: a
// region inside a body borrows the slots no attempt holds, so W bodies run
// at most W goroutines in all, a lone body gets the others' idle slots, and
// a runtime whose carriers have all exited lends nothing.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskml/internal/par"
)

// goroutineProbe counts the goroutines inside probed code and keeps the
// peak.
type goroutineProbe struct{ in, peak atomic.Int32 }

func (p *goroutineProbe) enter() {
	c := p.in.Add(1)
	for {
		old := p.peak.Load()
		if c <= old || p.peak.CompareAndSwap(old, c) {
			return
		}
	}
}

func (p *goroutineProbe) leave() { p.in.Add(-1) }

// kernelsInBodies runs twice Workers bodies, each running parallel regions
// wide enough to want a helper a chunk. A body's goroutine counts while it
// runs outside a region and, inside one, as the chunks it runs — as does
// every helper — so the probe counts the goroutines at work, which must
// never exceed Workers.
func kernelsInBodies(t *testing.T, workers int) {
	rt := New(Config{Workers: workers})
	var p goroutineProbe
	body := func(_ *TaskCtx, _ []any) (any, error) {
		p.enter()
		for rep := 0; rep < 4; rep++ {
			p.leave()
			par.For(64, 1, func(lo, hi int) {
				p.enter()
				for i := 0; i < 4; i++ {
					runtime.Gosched() // let the other goroutines overlap this chunk
				}
				p.leave()
			})
			p.enter()
		}
		p.leave()
		return nil, nil
	}
	for i := 0; i < 2*workers; i++ {
		rt.Submit(Opts{Name: "kernel"}, body)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := p.peak.Load(); got > int32(workers) {
		t.Fatalf("%d goroutines at work in bodies and their kernels with Workers=%d", got, workers)
	}
	untilIdle(t, rt)
}

// untilIdle waits for rt's carriers to exit and for rt to withdraw as a
// lender, so that it lends nothing to the regions of the tests after it: the
// lenders are process-wide, and a region may borrow any live runtime's idle
// slots. The last carrier withdraws just after it drops nLive to zero, so
// both are waited for.
func untilIdle(t *testing.T, rt *Runtime) {
	t.Helper()
	lending := func() bool {
		rt.ex.lendMu.Lock()
		defer rt.ex.lendMu.Unlock()
		return rt.ex.withdraw != nil
	}
	for deadline := time.Now().Add(5 * time.Second); rt.ex.nLive.Load() > 0 || lending(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d carriers still live (lending %v) 5 s after the work drained", rt.ex.nLive.Load(), lending())
		}
	}
}

// A lone body's region borrows every slot the runtime leaves idle: four
// chunks of a Workers=4 body run at once, and the slots are back after.
func TestKernelsBorrowIdleSlots(t *testing.T) {
	rt := New(Config{Workers: 4})
	f := rt.Submit(Opts{Name: "eigh"}, func(_ *TaskCtx, _ []any) (any, error) {
		var wg sync.WaitGroup
		wg.Add(4)
		var together atomic.Int32
		par.For(4, 1, func(lo, hi int) {
			wg.Done()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
				together.Add(1)
			case <-time.After(5 * time.Second):
			}
		})
		if together.Load() != 4 {
			return nil, fmt.Errorf("only %d of 4 chunks ran at once on a Workers=4 runtime", together.Load())
		}
		return nil, nil
	})
	if _, err := rt.Get(f); err != nil {
		t.Fatal(err)
	}
	rt.ex.slotMu.Lock()
	held := rt.ex.held
	rt.ex.slotMu.Unlock()
	if held != 0 {
		t.Fatalf("%d slots held after the body returned", held)
	}
	untilIdle(t, rt)
}

// The runtime lends while a carrier is live and withdraws when the last one
// exits; a body the main program runs keeps one live.
func TestRuntimeLendsWhileCarriersLive(t *testing.T) {
	rt := New(Config{Workers: 1})
	lending := func() bool {
		rt.ex.lendMu.Lock()
		defer rt.ex.lendMu.Unlock()
		return rt.ex.withdraw != nil
	}
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := rt.Submit(Opts{Name: "hold"}, func(_ *TaskCtx, _ []any) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started
	if !lending() {
		t.Fatal("a runtime running a body is not lending")
	}

	// The only carrier is busy, so the main program's Get takes the next
	// task itself and waits for the slot; once it runs the body, the idle
	// carrier lingers past its linger for as long as the body holds the
	// slot, and the runtime keeps lending.
	onMain := false
	inline := rt.Submit(Opts{Name: "inline"}, func(_ *TaskCtx, _ []any) (any, error) {
		buf := make([]byte, 1<<14)
		onMain = strings.Contains(string(buf[:runtime.Stack(buf, false)]), "TestRuntimeLendsWhileCarriersLive")
		time.Sleep(4 * carrierLinger)
		if !lending() {
			return nil, fmt.Errorf("not lending while the main program runs a body")
		}
		return nil, nil
	})
	go func() {
		time.Sleep(10 * time.Millisecond) // let the main program take the task
		close(release)
	}()
	if _, err := rt.Get(inline); err != nil {
		t.Fatal(err)
	}
	if !onMain {
		t.Fatal("the carrier ran the body meant for the main program")
	}
	if _, err := rt.Get(blocker); err != nil {
		t.Fatal(err)
	}
	untilIdle(t, rt)
	if lending() {
		t.Fatal("still lending after the last carrier exited")
	}
}
