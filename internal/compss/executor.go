// Work-stealing executor: per-worker deques and a parking protocol.
//
// Layout. The executor owns maxProcs worker structs, each holding a ring
// deque of ready tasks and the parker its carrier waits on. A *carrier* is
// a goroutine that claims a worker and loops pop→execute; carriers are
// spawned lazily when work appears and exit after a short idle linger, so
// an idle Runtime costs no goroutines. Every attempt runs inline on the
// carrier or helper that dispatched it, holding one of maxProcs slots
// (held, under slotMu); a body blocked in Get hands its slot back while it
// helps. Slots are counted apart from carriers because the main program
// helps without being one. Thieves iterate ex.workers unlocked. Every
// object a wait blocks on — a parker, the slot condition, a task's done
// channel — belongs to this runtime, so one made inside a testing/synctest
// bubble runs there in virtual time (virtual_test.go).
//
// Queues. A task body submitting through its TaskCtx pushes onto its own
// worker's deque bottom (LIFO: the freshest task is the cache-warmest) and
// never touches a runtime-global lock; external submits (the main program,
// and bodies the main program runs while it helps) round-robin over the
// live-carrier prefix of the deques. A ring that fills doubles, so every
// ready task sits on exactly one deque. When a task
// completes, its newly-ready children are pushed onto the completing
// worker's deque — the locality property Taskflow gets from the same
// design. Thieves take the deque top (FIFO), so the oldest — most likely
// coldest — task migrates.
//
// Steal order. An idle carrier scans its own deque, then sweeps the
// victims' deques in a per-carrier xorshift-random order so concurrent
// thieves fan out over different victims. Deque ops take a per-worker mutex
// (the "light victim lock" variant): owner and thief serialize on one
// uncontended-in-the-common-case lock, which the race detector can verify,
// instead of a fenced Chase-Lev protocol it cannot.
//
// Parking. Idle carriers and blocked helpers park on their parker, a cap-1
// channel kept in an idler list while they sleep. A carrier parks on its
// worker's parker, and so does every body it runs inline; a helper that
// owns no deque (the main program, a server's scorer loop, a detached wait)
// makes a parker the first time its wait has to park. Every enqueue signals
// — wake one idler, or spawn a carrier if none is parked and fewer than
// Workers are live — unless a carrier is already *searching* for work
// (nSearching > 0), in which case the signal is elided: the searcher's sweep
// is guaranteed to find the task, so a burst of submits ramps up one carrier
// at a time instead of one per task. Parking is two-phase (announce, then
// re-check the queues, then sleep) so a signal sent between the check and
// the sleep is never lost; a parker popped from the list concurrently with
// its own timeout/target-wake consumes the in-flight signal and hands it on,
// so no enqueue's wake is dropped, and the parker is empty again before its
// next park. A carrier leaves the searching state *before* its final queue
// re-check, so an enqueue that observed it searching has already made its
// task visible to that re-check.
//
// Helping. Any wait on a task — Runtime.Get, a body's nested Get, and the
// one wait loop over a context's submissions (WaitAll, the implicit wait for
// a returning body's children, Barrier) — runs ready tasks inline (acquiring
// a slot per attempt, so the Workers bound holds) instead of blocking, via
// helpUntilDone. That is what lets a carrier whose task blocks on a child
// execute the child itself with Workers == 1.
//
// Lending. While a carrier is live the executor is registered with par as
// a lender of its slots (TryBorrow, Return), so a kernel region inside a
// body borrows the slots no attempt holds (lend). Registration changes only
// when nLive reaches or leaves zero; a body the main program runs keeps a
// carrier alive (keepLending, leave), so it lends too.
//
// Tasks. The executor keeps no registry of the tasks it ran: they are
// allocated from per-worker slabs (allocTask) and live as long as something
// — a Future, a context's submitted list, a producer's children — reaches
// them. Barrier needs none, because an attempt completes only after its
// children have, so waiting on the main context's submissions waits on
// every task.
package compss

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"taskml/internal/par"
)

const (
	// dequeMin is a ring's first size (power of two); a full ring doubles.
	dequeMin = 32
	// carrierLinger is how long an idle carrier stays parked before exiting.
	carrierLinger = 500 * time.Microsecond
	// stealSpins is how many full find-work rounds a carrier runs (yielding
	// between them) before parking.
	stealSpins = 2
)

// worker is one deque owner slot. The structs are created at New and never
// freed; carriers claim and release them, and thieves sweep all of them, so
// a deque stays drainable even between owners.
type worker struct {
	idx int

	// park is the parker of the carrier that claims this worker, and of
	// every body that carrier runs inline while it helps: one goroutine at a
	// time, so one parker does.
	park parker

	// mu guards the ring below — the light victim lock. head is the steal
	// end, tail the owner end; size mirrors tail-head for lock-free
	// emptiness probes by thieves.
	mu   sync.Mutex
	buf  []*taskState
	head int
	tail int
	size atomic.Int32

	// shard is the slab this worker's body submissions are allocated from;
	// shardMu is separate from mu so allocating a submission never contends
	// with thieves.
	shardMu sync.Mutex
	shard   taskArena
}

// taskChunk is the arena slab size: taskStates are handed out of chunks of
// this many, one malloc per taskChunk submissions.
const taskChunk = 32

// taskArena hands out taskStates from the slab it is filling, guarded by the
// owning shard's mutex. It keeps no other slab: a task lives as long as
// something reaches it (or a sibling in its slab). Slots are handed out
// zeroed and never reused, exactly like individual allocations — the slab
// only batches the malloc and the GC bookkeeping.
type taskArena struct {
	chunk *[taskChunk]taskState
	n     int // used slots in chunk
}

func (a *taskArena) alloc() *taskState {
	if a.chunk == nil || a.n == taskChunk {
		a.chunk = new([taskChunk]taskState)
		a.n = 0
	}
	st := &a.chunk[a.n]
	a.n++
	return st
}

// push adds st to the deque bottom (owner end). The ring starts small and
// doubles on demand, so the many mostly-idle deques of a wide pool don't
// each pay for a burst's capacity up front.
func (w *worker) push(st *taskState) {
	w.mu.Lock()
	n := w.tail - w.head
	if n == len(w.buf) {
		grown := make([]*taskState, max(2*n, dequeMin))
		for i := 0; i < n; i++ {
			grown[(w.head+i)&(len(grown)-1)] = w.buf[(w.head+i)&(len(w.buf)-1)]
		}
		w.buf = grown
	}
	w.buf[w.tail&(len(w.buf)-1)] = st
	w.tail++
	w.size.Store(int32(w.tail - w.head))
	w.mu.Unlock()
}

// pop removes the most recently pushed task (owner end, LIFO).
func (w *worker) pop() *taskState {
	if w.size.Load() == 0 {
		return nil
	}
	w.mu.Lock()
	if w.tail == w.head {
		w.mu.Unlock()
		return nil
	}
	w.tail--
	st := w.buf[w.tail&(len(w.buf)-1)]
	w.buf[w.tail&(len(w.buf)-1)] = nil
	w.size.Store(int32(w.tail - w.head))
	w.mu.Unlock()
	return st
}

// steal removes the oldest task (thief end, FIFO).
func (w *worker) steal() *taskState {
	if w.size.Load() == 0 {
		return nil
	}
	w.mu.Lock()
	if w.tail == w.head {
		w.mu.Unlock()
		return nil
	}
	st := w.buf[w.head&(len(w.buf)-1)]
	w.buf[w.head&(len(w.buf)-1)] = nil
	w.head++
	w.size.Store(int32(w.tail - w.head))
	w.mu.Unlock()
	return st
}

// parker is one parked goroutine's wake channel (cap 1: a signal sent to a
// parker that is concurrently leaving is buffered, not lost). A signaler
// pops a parker from the idler list before it sends, and the owner takes
// that token before it parks again, so outside a park it holds none. timer
// is the carrier-linger timer, made at the first park and reused; it is
// stopped and drained outside a park, and the `if !Stop() { <-C }` drain is
// safe under both timer semantics: go.mod's go 1.22 and the
// asynctimerchan=0 the virtual-time tests run.
type parker struct {
	ch    chan struct{}
	timer *time.Timer
}

// executor is the scheduler state hanging off a Runtime.
type executor struct {
	// slotMu guards held, the slots attempts and borrowing kernel helpers
	// hold; at most maxProcs at once. slotFree wakes one acquire a release.
	// Every attempt writes these twice, so they lead the struct and the pad
	// keeps them off the cache lines of the fields every enqueue and steal
	// reads: sharing a line with them cost task_storm ≈ 4.5 % on 2 cores.
	slotMu   sync.Mutex
	held     int
	slotFree sync.Cond
	_        [64]byte

	rt       *Runtime
	maxProcs int // carrier/deque count and slot count
	workers  []*worker

	// claimMu guards the free-worker stack.
	claimMu sync.Mutex
	free    []*worker

	// extMu guards the arena for tasks submitted outside any worker
	// context.
	extMu    sync.Mutex
	extShard taskArena

	// idlers is the LIFO list of parked carriers and helpers; idleCount
	// mirrors its length for a lock-free probe on the signal fast path.
	idleMu    sync.Mutex
	idlers    []*parker
	idleCount atomic.Int32

	// nLive counts live carriers, parked ones included. It gates spawning
	// (at most maxProcs carriers; helpers are extra capacity on top) and is
	// decremented only on carrier exit.
	nLive atomic.Int32

	// nSearching counts carriers currently scanning for work: just spawned,
	// just woken, or between tasks. While one is scanning, signalWork skips
	// the wake/spawn entirely (the scanner will find the enqueued task, or
	// re-check the queues before it sleeps — see the parking protocol note
	// on carrier), which keeps a burst of submits from waking one carrier
	// per task and lets a serial submit→wait caller be served by a single
	// carrier without a wake/park cycle per task. A carrier that takes a
	// task and leaves the count at zero re-signals when work remains, so
	// the fleet still ramps to maxProcs under sustained load.
	nSearching atomic.Int32

	// lendMu guards withdraw, which is non-nil while the runtime is
	// registered with par as a lender (see lend).
	lendMu   sync.Mutex
	withdraw func()

	// rr rotates external submits over the worker deques.
	rr atomic.Uint32

	seed atomic.Uint64
}

func newExecutor(rt *Runtime, procs int) *executor {
	ex := &executor{rt: rt, maxProcs: procs}
	ex.slotFree.L = &ex.slotMu
	// One backing array for the worker structs — a runtime costs a few
	// small allocations here instead of one per worker.
	arr := make([]worker, procs)
	ex.workers = make([]*worker, procs)
	ex.free = make([]*worker, procs)
	for i := range arr {
		arr[i].idx = i
		arr[i].park.ch = make(chan struct{}, 1)
		ex.workers[i] = &arr[i]
		// The free stack is popped from the back: fill it reversed so the
		// first carriers claim w0, w1, ... — the same prefix the round-robin
		// in enqueue targets.
		ex.free[procs-1-i] = &arr[i]
	}
	ex.seed.Store(0x853c49e6748fea9b)
	return ex
}

func (ex *executor) nextSeed() uint64 {
	return ex.seed.Add(0x9e3779b97f4a7c15) | 1
}

func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// acquire takes a slot for a body, blocking while all maxProcs are held. A
// goroutine without a carrier — w nil, the main program helping — then keeps
// the runtime lending (keepLending).
func (ex *executor) acquire(w *worker) {
	ex.slotMu.Lock()
	for ex.held >= ex.maxProcs {
		ex.slotFree.Wait()
	}
	ex.held++
	ex.slotMu.Unlock()
	if w == nil {
		ex.keepLending()
	}
}

// release gives back a slot the calling goroutine took; it never blocks. One
// slot admits one waiter, so it wakes one.
func (ex *executor) release() {
	ex.slotMu.Lock()
	ex.held--
	ex.slotFree.Signal()
	ex.slotMu.Unlock()
}

// TryBorrow takes a slot for a kernel region's helper if one is free,
// without waiting: the executor is the runtime's par.Lender (see lend).
func (ex *executor) TryBorrow() bool {
	ex.slotMu.Lock()
	ok := ex.held < ex.maxProcs
	if ok {
		ex.held++
	}
	ex.slotMu.Unlock()
	return ok
}

// Return gives back a slot TryBorrow took.
func (ex *executor) Return() { ex.release() }

// claimWorker hands a starting carrier its deque. One is always free: a
// carrier claims after signalWork counted it in nLive and releases before it
// uncounts itself, and nLive never exceeds maxProcs.
func (ex *executor) claimWorker() *worker {
	ex.claimMu.Lock()
	defer ex.claimMu.Unlock()
	n := len(ex.free)
	w := ex.free[n-1]
	ex.free = ex.free[:n-1]
	return w
}

func (ex *executor) releaseWorker(w *worker) {
	ex.claimMu.Lock()
	ex.free = append(ex.free, w)
	ex.claimMu.Unlock()
}

// anyWork reports whether any queue holds a ready task (atomic probes only).
func (ex *executor) anyWork() bool {
	for _, w := range ex.workers {
		if w.size.Load() > 0 {
			return true
		}
	}
	return false
}

// signalWork is called after every enqueue — the signal is what keeps the
// carrier population matched to the queued work: wake one parked idler, else
// spawn a carrier if the fleet is not full. The no-idler no-headroom case is
// two atomic loads — the submit fast path stays lock-free. A carrier that
// is already searching absorbs the signal (see nSearching): it either takes
// the task or re-checks the queues before sleeping, so the skip never
// strands an enqueue.
func (ex *executor) signalWork() {
	if ex.nSearching.Load() > 0 {
		return
	}
	if ex.idleCount.Load() > 0 {
		ex.idleMu.Lock()
		if n := len(ex.idlers); n > 0 {
			p := ex.idlers[n-1]
			ex.idlers = ex.idlers[:n-1]
			ex.idleCount.Store(int32(n - 1))
			ex.idleMu.Unlock()
			p.ch <- struct{}{} // cap 1, one send per pop: never blocks
			return
		}
		ex.idleMu.Unlock()
	}
	for {
		n := ex.nLive.Load()
		if n >= int32(ex.maxProcs) {
			return
		}
		if ex.nLive.CompareAndSwap(n, n+1) {
			ex.startCarrier(n == 0)
			return
		}
	}
}

// startCarrier starts a carrier nLive already counts; first says it is the
// only one, which makes the runtime a lender.
func (ex *executor) startCarrier(first bool) {
	if first {
		ex.lend()
	}
	ex.nSearching.Add(1) // the new carrier starts out searching
	go ex.carrier()
}

// lend keeps the executor registered with par as a lender of its slots
// exactly while a carrier is live, so kernel regions borrow the slots no
// attempt holds. It is called only when nLive reaches or leaves zero — never
// on the attempt path — and re-reads nLive under lendMu, so of two racing
// transitions the one that calls last leaves the registration matching the
// count.
func (ex *executor) lend() {
	ex.lendMu.Lock()
	defer ex.lendMu.Unlock()
	live := ex.nLive.Load() > 0
	if live && ex.withdraw == nil {
		ex.withdraw = par.Lend(ex)
	} else if !live && ex.withdraw != nil {
		ex.withdraw()
		ex.withdraw = nil
	}
}

// keepLending is called by a goroutine without a carrier — the main program
// helping — once it holds a slot for a body: with no carrier live it starts
// one, and the last carrier does not leave while a slot is held (leave), so
// the runtime stays a lender while the body runs.
func (ex *executor) keepLending() {
	for ex.nLive.Load() == 0 {
		if ex.nLive.CompareAndSwap(0, 1) {
			ex.startCarrier(true)
			return
		}
	}
}

// leave uncounts a carrier whose linger expired, unless it is the last one
// and a slot is held — by a body the main program runs, or by a region's
// helper — in which case it reports false and the carrier lingers on. The
// check and the decrement run under slotMu, which every acquire takes before
// keepLending reads nLive: either the acquire sees no carrier and starts
// one, or this carrier sees the held slot and stays.
func (ex *executor) leave(w *worker) bool {
	ex.slotMu.Lock()
	if ex.held > 0 && ex.nLive.Load() == 1 {
		ex.slotMu.Unlock()
		return false
	}
	ex.releaseWorker(w)
	last := ex.nLive.Add(-1) == 0
	ex.slotMu.Unlock()
	if last {
		ex.lend()
	}
	return true
}

// announceIdle parks p on the idler list (phase one of two-phase parking:
// the caller must re-check the queues before sleeping).
func (ex *executor) announceIdle(p *parker) {
	ex.idleMu.Lock()
	ex.idlers = append(ex.idlers, p)
	ex.idleCount.Store(int32(len(ex.idlers)))
	ex.idleMu.Unlock()
}

// cancelIdle removes p from the idler list, reporting false when a signaler
// popped it first — in which case a wake token is (or is about to be) in
// p.ch and the caller must consume it.
func (ex *executor) cancelIdle(p *parker) bool {
	ex.idleMu.Lock()
	defer ex.idleMu.Unlock()
	for i := len(ex.idlers) - 1; i >= 0; i-- {
		if ex.idlers[i] == p {
			ex.idlers = append(ex.idlers[:i], ex.idlers[i+1:]...)
			ex.idleCount.Store(int32(len(ex.idlers)))
			return true
		}
	}
	return false
}

// retire removes p from the idler list when its owner stops waiting for a
// reason other than a work signal (its target completed, or a carrier's
// linger expired). If a signaler already popped p, the in-flight signal is
// consumed and handed to another processor so the enqueue that sent it is
// still served.
func (ex *executor) retire(p *parker) {
	if !ex.cancelIdle(p) {
		<-p.ch
		if ex.anyWork() {
			ex.signalWork()
		}
	}
}

// findWork returns the next ready task for a processor that owns deque w
// (nil for helpers without one): own deque, then one randomized sweep over
// the other deques. stolen reports a migration from
// another worker's deque.
func (ex *executor) findWork(w *worker, rng *uint64) (st *taskState, stolen bool) {
	if w != nil {
		if st = w.pop(); st != nil {
			return st, false
		}
	}
	n := len(ex.workers)
	start := int(xorshift(rng) % uint64(n))
	for i := 0; i < n; i++ {
		v := ex.workers[(start+i)%n]
		if v == w {
			continue
		}
		if st = v.steal(); st != nil {
			return st, true
		}
	}
	return nil, false
}

// carrier is the worker-goroutine main loop: claim a deque slot, run tasks,
// park when idle, exit when the linger expires. The exit path re-checks the
// queues after decrementing nLive so an enqueue that saw a full fleet and
// skipped spawning is never stranded.
func (ex *executor) carrier() {
	w := ex.claimWorker()
	p := &w.park
	rng := ex.nextSeed()
	spins := 0
	searching := true // spawned searching, counted by the spawner
	for {
		if !searching {
			searching = true
			ex.nSearching.Add(1)
		}
		st, stolen := ex.findWork(w, &rng)
		if st != nil {
			searching = false
			// Last searcher taking a task: signals were absorbed on its
			// behalf, so hand the ramp on if work remains queued.
			if ex.nSearching.Add(-1) == 0 && ex.anyWork() {
				ex.signalWork()
			}
			spins = 0
			ex.rt.runReady(st, w, stolen)
			continue
		}
		if spins < stealSpins {
			spins++
			runtime.Gosched()
			continue
		}
		spins = 0
		ex.announceIdle(p)
		// Stop counting as a searcher strictly before the phase-two queue
		// re-check: an enqueuer that observed this carrier searching (and
		// skipped its signal) is then guaranteed the check below sees its
		// task — the atomic order is enqueue < nSearching load < this
		// decrement < anyWork loads.
		searching = false
		ex.nSearching.Add(-1)
		if ex.anyWork() { // phase two: an enqueue may have just missed us
			if !ex.cancelIdle(p) {
				<-p.ch
			}
			continue
		}
		if p.timer == nil {
			p.timer = time.NewTimer(carrierLinger)
		} else {
			p.timer.Reset(carrierLinger) // stopped-and-drained since last park
		}
		select {
		case <-p.ch:
			if !p.timer.Stop() {
				<-p.timer.C
			}
		case <-p.timer.C:
			if !ex.cancelIdle(p) { // a signaler beat the timer: serve it
				<-p.ch
				continue
			}
			if !ex.leave(w) {
				continue
			}
			if ex.anyWork() {
				ex.signalWork() // close the exit/enqueue race
			}
			return
		}
	}
}

// helpUntilDone runs ready tasks inline until target completes — the
// blocking strategy of every wait in the runtime. A helper with nothing to
// run parks as an idler, waking on either its target's completion or a work
// signal, so parked helpers still serve the pool. It parks on w's parker; a
// helper that owns no deque (w nil) makes one the first time this call has
// to park. Completion is polled via target.completed (one atomic load per
// round); the target's done channel is only materialized when the helper
// actually has to sleep.
func (ex *executor) helpUntilDone(w *worker, rng *uint64, target *taskState) {
	var p *parker
	if w != nil {
		p = &w.park
	}
	for {
		if target.completed.Load() {
			return
		}
		if st, stolen := ex.findWork(w, rng); st != nil {
			ex.rt.runReady(st, w, stolen)
			continue
		}
		if p == nil {
			p = &parker{ch: make(chan struct{}, 1)}
		}
		ex.announceIdle(p)
		if target.completed.Load() {
			ex.retire(p)
			return
		}
		if ex.anyWork() {
			if !ex.cancelIdle(p) {
				<-p.ch
			}
			continue
		}
		select {
		case <-target.doneChan():
			ex.retire(p)
			return
		case <-p.ch:
		}
	}
}

// enqueue makes a ready task available: the submitting/completing worker's
// own deque when there is one (locality); external submits round-robin over
// the live-carrier prefix of the deques — claimWorker hands slots out from
// the front, so the first nLive deques are the ones carriers actually drain;
// spreading over the idle tail would only force thieves to find the tasks.
// Every enqueue signals.
func (ex *executor) enqueue(st *taskState, w *worker) {
	if w == nil {
		n := int(ex.nLive.Load())
		if n < 1 {
			n = 1
		} else if n > len(ex.workers) {
			n = len(ex.workers)
		}
		w = ex.workers[int(ex.rr.Add(1))%n]
	}
	w.push(st)
	ex.signalWork()
}

// allocTask hands out a zeroed taskState from the submitting worker's arena
// (or the external arena): one malloc per taskChunk submissions, and no
// registry of them (see "Tasks" above).
func (ex *executor) allocTask(w *worker) *taskState {
	if w != nil {
		w.shardMu.Lock()
		st := w.shard.alloc()
		w.shardMu.Unlock()
		return st
	}
	ex.extMu.Lock()
	st := ex.extShard.alloc()
	ex.extMu.Unlock()
	return st
}
