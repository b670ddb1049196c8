package compss

import "sync"

// slotPool is the runtime's execution-capacity semaphore: acquire blocks
// while held ≥ cap, release never blocks. Its capacity is fixed at New.
//
// A release is always preceded by this goroutine's own acquire;
// blockingWait's slot parking relies on that pairing. The pool is also the
// runtime's par.Lender (TryBorrow, Return): a kernel region's helpers borrow
// the slots no attempt holds, and give them back when the region drains.
type slotPool struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	held int
}

func newSlotPool(capacity int) *slotPool {
	p := &slotPool{cap: max(capacity, 1)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquire blocks until the pool is under capacity and takes one slot.
func (p *slotPool) acquire() {
	p.mu.Lock()
	for p.held >= p.cap {
		p.cond.Wait()
	}
	p.held++
	p.mu.Unlock()
}

// release returns one slot; it never blocks. One slot admits one waiter, so
// it wakes one.
func (p *slotPool) release() {
	p.mu.Lock()
	p.held--
	p.cond.Signal()
	p.mu.Unlock()
}

// TryBorrow takes a slot if one is free, without waiting.
func (p *slotPool) TryBorrow() bool {
	p.mu.Lock()
	ok := p.held < p.cap
	if ok {
		p.held++
	}
	p.mu.Unlock()
	return ok
}

// Return gives back a slot TryBorrow took.
func (p *slotPool) Return() { p.release() }
