package compss

import "sync"

// slotPool is the runtime's execution-capacity semaphore: acquire blocks
// while held ≥ cap, release never blocks. Capacity follows an elastic
// backend's fleet — setCap re-targets the pool mid-run and wakes every
// waiter to re-evaluate.
//
// Shrinking never revokes held slots: with held > cap the pool is simply
// over target and admits no one until enough releases bring it back under —
// the same grace a draining worker gets on the exec side. A release is
// always preceded by this goroutine's own acquire; blockingWait's
// slot parking relies on that pairing.
type slotPool struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	held int
}

func newSlotPool(capacity int) *slotPool {
	if capacity < 1 {
		capacity = 1
	}
	p := &slotPool{cap: capacity}
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

// release returns one slot; it never blocks.
func (p *slotPool) release() {
	p.mu.Lock()
	p.held--
	p.cond.Broadcast()
	p.mu.Unlock()
}

// setCap re-targets the pool's capacity (clamped to ≥ 1) and wakes waiters
// so a raised cap admits them immediately.
func (p *slotPool) setCap(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	p.cap = n
	p.cond.Broadcast()
	p.mu.Unlock()
}

// capacity returns the current target capacity.
func (p *slotPool) capacity() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cap
}
