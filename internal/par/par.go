package par

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// A Lender is a budget of execution slots a parallel region's helpers may
// borrow: a task runtime's slots, a worker's request slots. TryBorrow
// takes one free slot and reports whether it did; it never blocks. Return
// gives back a slot TryBorrow took.
type Lender interface {
	TryBorrow() bool
	Return()
}

// Slots is a Lender over a counting semaphore of cap(s) slots: a send takes
// one, a receive gives it back.
type Slots chan struct{}

// TryBorrow takes a slot if one is free.
func (s Slots) TryBorrow() bool {
	select {
	case s <- struct{}{}:
		return true
	default:
		return false
	}
}

// Return gives a slot back.
func (s Slots) Return() { <-s }

// lenders is the registered lenders, copied on write under lendMu. A region
// reads it with one atomic load.
var (
	lendMu  sync.Mutex
	lenders atomic.Pointer[[]Lender]
)

// Lend registers l: until withdraw is called, the helpers of every parallel
// region in the process borrow their slots from the registered lenders, in
// registration order, and no longer run on spare cores. withdraw may be
// called more than once; slots already borrowed are still given back to l.
func Lend(l Lender) (withdraw func()) {
	update(func(ls []Lender) []Lender { return append(ls, l) })
	return sync.OnceFunc(func() {
		update(func(ls []Lender) []Lender {
			i := slices.Index(ls, l)
			return slices.Delete(ls, i, i+1)
		})
	})
}

// update replaces the lender list with f of a copy of it.
func update(f func([]Lender) []Lender) {
	lendMu.Lock()
	defer lendMu.Unlock()
	var ls []Lender
	if cur := lenders.Load(); cur != nil {
		ls = slices.Clone(*cur)
	}
	ls = f(ls)
	lenders.Store(&ls)
}

// SetLimit does nothing. Helpers borrow idle slots from the registered
// lenders (see the package comment), so there is no limit to set; it is
// kept only because the frozen benchmark module still calls it.
//
// Deprecated: there is no kernel limit.
func SetLimit(int) {}

// firstPanic captures the first panic raised inside a parallel region so it
// can be re-raised on the calling goroutine (matching the containment
// behaviour kernels have when run serially: compss task bodies recover
// panics, which only works if the panic surfaces on the body's goroutine).
type firstPanic struct {
	once sync.Once
	val  any
}

func (f *firstPanic) capture() {
	if r := recover(); r != nil {
		f.once.Do(func() { f.val = r })
	}
}

func (f *firstPanic) rethrow() {
	if f.val != nil {
		panic(fmt.Sprintf("par: panic in parallel region: %v", f.val))
	}
}

// spareCore lends one of the machine's spare cores: the slot a helper takes
// when no lender is registered.
type spareCore struct{}

func (spareCore) TryBorrow() bool { return true }
func (spareCore) Return()         {}

// borrow takes a region's first helper slot: from the first registered
// lender with one free, or a spare core when no lender is registered and
// the machine has one. It returns nil, allocating nothing, when there is
// none — the region then runs serially on its caller.
func borrow() Lender {
	if ls := lenders.Load(); ls != nil && len(*ls) > 0 {
		for _, l := range *ls {
			if l.TryBorrow() {
				return l
			}
		}
		return nil
	}
	if runtime.GOMAXPROCS(0) > 1 {
		return spareCore{}
	}
	return nil
}

// region runs parts 0..parts-1 of a parallel region on the caller plus
// helpers, each participant claiming parts until none is left; get and put
// bracket one participant's claims (nil: no scratch). first is the slot
// borrow took: the first helper runs on it, and the others borrow theirs
// from the registered lenders — or, when first is a spare core, take up to
// GOMAXPROCS−1 spare cores in all. Every helper gives its slot back when it
// runs out of parts.
func region(first Lender, parts int, get func() any, put func(any), run func(part int, scratch any)) {
	var next atomic.Int64
	var pan firstPanic
	work := func() {
		var s any
		if get != nil {
			s = get()
			defer put(s)
		}
		defer pan.capture()
		for {
			c := next.Add(1) - 1
			if c >= int64(parts) {
				return
			}
			run(int(c), s)
		}
	}
	var wg sync.WaitGroup
	help := func(l Lender) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer l.Return()
			work()
		}()
	}
	help(first)
	want := parts - 2
	if _, spare := first.(spareCore); spare {
		for want = min(want, runtime.GOMAXPROCS(0)-2); want > 0; want-- {
			help(first)
		}
	} else if ls := lenders.Load(); ls != nil {
		for _, l := range *ls {
			for ; want > 0 && l.TryBorrow(); want-- {
				help(l)
			}
		}
	}
	work()
	wg.Wait()
	pan.rethrow()
}

// For runs fn over the half-open chunks of [0, n): fn(lo, hi), covering
// every index exactly once. Chunks execute on the caller plus however many
// helpers could borrow a slot (never more than chunks-1); when none could,
// the loop is a single fn(0, n) call on the caller, so fn must accept
// ranges wider than grain. fn must be safe to call concurrently on disjoint
// ranges.
//
// grain is the smallest unit worth shipping to another goroutine — pick it
// so one chunk is ≥ a few microseconds of work.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	grain = max(grain, 1)
	chunks := (n + grain - 1) / grain
	if chunks > 1 {
		if l := borrow(); l != nil {
			region(l, chunks, nil, nil, func(c int, _ any) {
				lo := c * grain
				fn(lo, min(lo+grain, n))
			})
			return
		}
	}
	fn(0, n)
}

// ForScratch is For for loop bodies that need per-goroutine scratch (an
// arena buffer, an FFT work area): each goroutine that participates in the
// region — the caller plus any helpers — calls get exactly once before its
// first chunk and put exactly once after its last, so a scratch value is
// reused across all the chunks one goroutine executes and never shared
// between two. Without helpers the whole loop runs on the caller with a
// single get/put pair around one fn(0, n, scratch) call, so the serial path
// costs one scratch checkout, not one per chunk.
//
// fn must treat scratch as exclusively owned for the duration of a call;
// put receives the value back for recycling (typically a mat.Pool.Put).
func ForScratch(n, grain int, get func() any, put func(any), fn func(lo, hi int, scratch any)) {
	if n <= 0 {
		return
	}
	grain = max(grain, 1)
	chunks := (n + grain - 1) / grain
	if chunks > 1 {
		if l := borrow(); l != nil {
			region(l, chunks, get, put, func(c int, s any) {
				lo := c * grain
				fn(lo, min(lo+grain, n), s)
			})
			return
		}
	}
	s := get()
	fn(0, n, s)
	put(s)
}

// Do runs the thunks, concurrently when helpers can borrow slots, and
// returns when all have completed. Without helpers the thunks run in order
// on the caller.
func Do(thunks ...func()) {
	if len(thunks) > 1 {
		if l := borrow(); l != nil {
			region(l, len(thunks), nil, nil, func(i int, _ any) { thunks[i]() })
			return
		}
	}
	for _, th := range thunks {
		th()
	}
}
