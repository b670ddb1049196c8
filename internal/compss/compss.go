package compss

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"taskml/internal/exec"
	"taskml/internal/graph"
)

// Opts describes a task at submission time.
type Opts struct {
	// Name labels the task kind in the captured graph (colors in the DOT
	// export, CountByName in tests).
	Name string
	// Cost is the task's virtual duration in reference-core seconds (or
	// reference-GPU seconds when GPUs > 0). It does not affect real
	// execution, only the replayed schedule.
	Cost float64
	// Cores is the number of cores the task occupies on its node. Defaults
	// to 1 when both Cores and GPUs are zero.
	Cores int
	// GPUs is the number of accelerators the task occupies.
	GPUs int
	// OutBytes is the size of the produced value, charged by the scheduler
	// when a dependent runs on a different node (or via the master).
	OutBytes int64
	// Retries is how many times a failed attempt — an error or a panic from
	// its body, its backend or a nested child — is re-executed before the
	// task is declared failed; no attempt is bounded in wall time. 0 falls
	// back to Config.DefaultRetries; a negative value opts out explicitly
	// (exactly one attempt, even when the default is positive); the FailFast
	// policy forces 0. Retried attempts re-run immediately in real time —
	// backoff exists only in the replayed schedule, so failure handling
	// stays deterministic.
	Retries int
	// Backoff is the virtual-time base delay, in seconds, between a failed
	// attempt and its retry: the retry after failed attempt k (0-based)
	// re-queues Backoff·2^k after the failure instant, so the first retry
	// waits the base. 0 falls back to Config.DefaultBackoff. Like Cost it
	// never affects real execution.
	Backoff float64
	// Fallback, when non-nil, is the value published if every attempt fails
	// under the Degrade policy, letting dependents — typically reduction
	// merges — proceed on partial results. For SubmitN tasks it must be a
	// []any of length nOut. Fallback values may be shared between tasks and
	// must be treated as read-only by consumers.
	Fallback any
	// Exec names a registered execution-backend function (exec.Register)
	// standing in for the task body: the attempt runs through
	// Config.Backend when one is attached — typically on a remote worker
	// process — and through an in-process registry call otherwise, with
	// identical semantics. Tasks submitted with SubmitExec/SubmitExecN set
	// it; tasks with a closure body leave it empty and always run
	// in-process. Retries, fault injection and failure policies apply
	// identically either way: a backend failure (worker crash, dropped
	// connection) is an attempt failure like any other.
	Exec string
}

// FailurePolicy is the runtime-wide answer to a task exhausting its attempts.
type FailurePolicy int

const (
	// RetryThenFail (the default) honours per-task retry budgets and fails
	// the task — and transitively its dependents — when they run out.
	RetryThenFail FailurePolicy = iota
	// FailFast ignores retry budgets: the first failed attempt is final.
	FailFast
	// Degrade behaves like RetryThenFail, but a task that declared
	// Opts.Fallback publishes it instead of failing, so the workflow
	// completes on partial results (at a model-quality cost; the graph
	// records which tasks degraded).
	Degrade
)

// TaskFunc is a task body. It receives a TaskCtx for nested submissions and
// its resolved arguments (futures replaced by values) and returns the task's
// output value.
type TaskFunc func(tc *TaskCtx, args []any) (any, error)

// MultiTaskFunc is a task body with multiple outputs (see SubmitN).
type MultiTaskFunc func(tc *TaskCtx, args []any) ([]any, error)

// Config configures a Runtime.
type Config struct {
	// Workers bounds real goroutine parallelism. Defaults to GOMAXPROCS.
	Workers int
	// OnTaskFailure selects what happens when a task exhausts its attempts.
	// The zero value, RetryThenFail, preserves the historical behaviour for
	// tasks without retries (first failure is final).
	OnTaskFailure FailurePolicy
	// DefaultRetries is the retry budget for tasks that leave Opts.Retries
	// at 0. Ignored under FailFast.
	DefaultRetries int
	// DefaultBackoff is the virtual backoff base, in seconds, for tasks that
	// leave Opts.Backoff at 0.
	DefaultBackoff float64
	// Faults injects deterministic failures into chosen attempts (tests,
	// cmd/scaling -faults). Nil injects nothing.
	Faults *FaultPlan
	// Observers receive task lifecycle events (see observer.go). The slice
	// is copied at New; attaching no observers keeps the submit path free
	// of instrumentation cost (one atomic nil-check per would-be event).
	Observers []Observer
	// Backend executes Opts.Exec-named attempts (see internal/exec). Nil —
	// the default — runs them in-process via the registry, with zero cost
	// over a closure body; an exec.Remote ships them to worker processes.
	// Tasks without an Exec name never touch the backend.
	Backend exec.Backend
}

// Runtime executes tasks and captures the workflow graph.
type Runtime struct {
	g    *graph.Graph
	cfg  Config
	sem  *slotPool
	main *TaskCtx

	// ex is the work-stealing executor (see executor.go): per-worker ready
	// deques and the carrier/parking machinery. Neither it nor the runtime
	// keeps a task list: Barrier walks the main context's submissions.
	ex *executor

	// obs is the copy-on-write observer list; nil when no observer is
	// attached (the zero-cost default). mu guards only the observer-list
	// swap.
	obs atomic.Pointer[[]Observer]

	// execSession is this runtime's exec-backend session token (see
	// exec.NextSession): it scopes the runtime's task ids in worker future
	// caches, so sequential or concurrent runtimes sharing one backend can
	// never alias each other's cached outputs. 0 when no Backend is
	// attached.
	execSession uint64
	// chains is the backend's chain-dispatch side (see chain.go); nil — no
	// task is ever chained — without a backend that has one, while its
	// reference plane is off, or on a runtime with a fault plan.
	chains exec.ChainBackend
	// holder is the backend's held-results side (held.go); nil when outputs
	// always come home in the reply.
	holder exec.Holder
	rel    *release // given back once nothing can reach the runtime (New)

	mu sync.Mutex
}

// release is a runtime's claim on a backend that holds values: the session
// the backend holds them under. It points at nothing of the runtime, so it
// becomes unreachable with it, and its finalizer lets go.
type release struct {
	session uint64
	holder  exec.Holder
}

func (r *release) run() {
	go r.holder.Forget(r.session) // it writes to sockets: not on the finalizer goroutine
}

// New creates a runtime.
//
// Its parallelism is fixed here: the executor and the slot pool are both
// sized to max(Workers, the backend's SlotTotal() now) when the backend
// reports one, as exec.Remote does. A worker that joins the fleet later
// makes up for one that was lost and is fully used by runtimes created after
// it.
//
// A runtime has no Close. Once nothing can reach it — every Future, TaskCtx
// and running body leads back to it — over a backend that holds values
// (exec.Holder, like exec.Remote) a finalizer has the backend forget its
// session everywhere.
func New(cfg Config) *Runtime {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultRetries < 0 {
		cfg.DefaultRetries = 0
	}
	if cfg.DefaultBackoff < 0 {
		cfg.DefaultBackoff = 0
	}
	if fleet, ok := cfg.Backend.(interface{ SlotTotal() int }); ok {
		w = max(w, fleet.SlotTotal())
	}
	rt := &Runtime{
		g:   graph.New(),
		cfg: cfg,
		sem: newSlotPool(w),
	}
	rt.ex = newExecutor(rt, w)
	if cfg.Backend != nil {
		rt.execSession = exec.NextSession()
	}
	if cb, ok := cfg.Backend.(exec.ChainBackend); ok && cfg.Faults == nil {
		rt.chains = cb
	}
	rt.holder, _ = cfg.Backend.(exec.Holder)
	if rt.holder != nil {
		rt.rel = &release{session: rt.execSession, holder: rt.holder}
		runtime.SetFinalizer(rt.rel, (*release).run)
	}
	if len(cfg.Observers) > 0 {
		obs := make([]Observer, len(cfg.Observers))
		copy(obs, cfg.Observers)
		rt.obs.Store(&obs)
	}
	rt.main = &TaskCtx{rt: rt, parent: -1, insideTask: false}
	return rt
}

// Graph returns the captured task graph. It grows as the program submits
// tasks; replay it with internal/cluster once the workflow is complete
// (after Barrier).
func (rt *Runtime) Graph() *graph.Graph { return rt.g }

// Main returns the main-program task context.
//
// Every Runtime convenience method below is a thin, documented forward to
// the same method on Main(): there is exactly one submission code path
// (TaskCtx.submit) and one synchronisation code path (TaskCtx.Get /
// blockingWait), which is also where the Observer events are emitted — one
// code path, one instrumentation point.
func (rt *Runtime) Main() *TaskCtx { return rt.main }

// Submit schedules fn as a task of the main program.
// It forwards to Main().Submit; see TaskCtx.Submit.
func (rt *Runtime) Submit(o Opts, fn TaskFunc, args ...any) *Future {
	return rt.main.Submit(o, fn, args...)
}

// SubmitN schedules a task with nOut outputs from the main program.
// It forwards to Main().SubmitN; see TaskCtx.SubmitN.
func (rt *Runtime) SubmitN(o Opts, nOut int, fn MultiTaskFunc, args ...any) []*Future {
	return rt.main.SubmitN(o, nOut, fn, args...)
}

// SubmitExec schedules a registered backend function as a task of the main
// program. It forwards to Main().SubmitExec; see TaskCtx.SubmitExec.
func (rt *Runtime) SubmitExec(o Opts, args ...any) *Future {
	return rt.main.SubmitExec(o, args...)
}

// SubmitExecN schedules a registered multi-output backend function as a
// task of the main program. It forwards to Main().SubmitExecN; see
// TaskCtx.SubmitExecN.
func (rt *Runtime) SubmitExecN(o Opts, nOut int, args ...any) []*Future {
	return rt.main.SubmitExecN(o, nOut, args...)
}

// Get synchronises on f from the main program: it blocks until the value is
// available and raises the main sync floor.
// It forwards to Main().Get; see TaskCtx.Get.
func (rt *Runtime) Get(f *Future) (any, error) { return rt.main.Get(f) }

// GetAll resolves a slice of futures from the main program with Get
// semantics. It forwards to Main().GetAll; see TaskCtx.GetAll.
func (rt *Runtime) GetAll(fs []*Future) ([]any, error) { return rt.main.GetAll(fs) }

// WaitAll waits for every task submitted through the main context and
// raises the main sync floor past all of them.
// It forwards to Main().WaitAll; see TaskCtx.WaitAll.
func (rt *Runtime) WaitAll() error { return rt.main.WaitAll() }

// Barrier waits for every task submitted so far (in any context) and
// returns the first error in submission order, if any. Like a PyCOMPSs
// barrier it is also a synchronisation: tasks submitted afterwards start,
// in virtual time, after everything before the barrier.
// It is Main().WaitAll with the floor raised past every task in the graph:
// a task completes only after the tasks its body submitted, so the main
// program's tasks complete last, and a nested failure no ancestor absorbed
// failed its main-program ancestor too, which has the smaller id.
func (rt *Runtime) Barrier() error { return rt.main.barrierAll() }

// taskState is the shared completion record behind one or more Futures.
// Single-output tasks — the overwhelmingly common case — embed their value
// slot, Future and first-attempt context here, so one allocation covers the
// whole submission record (see TaskCtx.submit).
type taskState struct {
	id      int
	name    string
	occ     int // occurrence index among same-named tasks, for fault matching
	retries int // effective retry budget after Config defaults and policy
	// The two Opts fields execution needs after submit; carrying them
	// instead of the whole Opts keeps the per-task record (and its zeroing
	// on the submit hot path) small.
	fallback any
	execName string
	// done is the completion broadcast channel, allocated lazily by
	// doneChan: most tasks finish before anyone parks on them and never
	// pay for one. completed is the authoritative flag — waiters poll it
	// with one atomic load and only materialize the channel to sleep.
	done     chan struct{}
	vals     []any
	err      error
	degraded bool
	// last is the attempt that made vals, counted on by reruns of a task whose
	// held outputs were lost (held.go; chMu serialises them). It sits, like
	// want below, in what would be padding (TestTaskChunkKeepsItsSizeClass).
	last int32

	// Execution record carried from submit to runReady: the body, its output
	// arity and the raw argument list (futures unresolved). The body and the
	// arguments go at completion (letGo).
	fn1  TaskFunc
	fnN  MultiTaskFunc
	nOut int
	args []any
	// floorIDs snapshots the submitting context's sync floor: every id here
	// became a (ViaMaster) graph dep of this task, so Get on this task can
	// compact them out of the floor.
	floorIDs []int

	// Readiness. pending counts unmet argument producers plus one submission
	// sentinel; the transition to 0 is the ready edge (becomeReady). chMu
	// guards the completed flag and the children list a producer drains at
	// completion; stolen records whether dispatch migrated the task off the
	// deque it was enqueued on (Observer/Stats attribution only).
	pending   atomic.Int32
	chMu      sync.Mutex
	completed atomic.Bool
	children  []*taskState
	stolen    bool
	// chained marks a follower of a chain in flight (chain.go): becomeReady
	// leaves it to the chain's runner.
	chained atomic.Bool
	// want is set by a Get that waits for the task: its outputs should come
	// home in the reply instead of staying on the worker (held.go).
	want atomic.Bool

	val1  [1]any     // backing for vals when nOut == 1
	fut1  Future     // the single Future when nOut == 1
	futp1 [1]*Future // backing for the returned []*Future when nOut == 1
	ctx0  TaskCtx    // attempt 0's body context (retries allocate fresh ones)
}

// closedChan is returned by doneChan for already-completed tasks, so the
// post-completion wait path allocates nothing.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// doneChan returns a channel that is closed once the task completed,
// allocating st.done on first use. Callers that only need a completion
// probe read st.completed directly; the channel exists purely for waiters
// that must sleep in a select.
func (st *taskState) doneChan() <-chan struct{} {
	if st.completed.Load() {
		return closedChan
	}
	st.chMu.Lock()
	if st.completed.Load() {
		st.chMu.Unlock()
		return closedChan
	}
	if st.done == nil {
		st.done = make(chan struct{})
	}
	ch := st.done
	st.chMu.Unlock()
	return ch
}

// Future is a handle to the not-yet-available output of a task. Passing a
// Future (or a []*Future) as a Submit argument creates a dependency; Get
// synchronises on it.
type Future struct {
	st  *taskState
	idx int
}

// TaskID returns the graph ID of the producing task.
func (f *Future) TaskID() int { return f.st.id }

// wait blocks until the producing task completed, without sync-floor
// semantics, and returns its outcome (blockingWait's last step).
func (f *Future) wait() (any, error) {
	if !f.st.completed.Load() {
		<-f.st.doneChan()
	}
	if f.st.err != nil {
		return nil, f.st.err
	}
	return f.st.vals[f.idx], nil
}

// TaskCtx is the submission context handed to task bodies. The main program
// has its own context (Runtime.Main). Each context tracks a local sync
// floor and the set of tasks it submitted.
type TaskCtx struct {
	rt         *Runtime
	parent     int  // graph ID of the enclosing task, -1 for main
	insideTask bool // true when this ctx belongs to a running task body

	// wkr is the deque the executing carrier owns — nested submits push
	// there, the lock-free fast path — and is nil for main and for a body the
	// main program ran while it helped. A body runs inline on the carrier or
	// helper goroutine that dispatched it, holding the worker slot its
	// attempt acquired, and blocks by helping (blockingWait, waitSubmitted).
	wkr *worker

	// floor is the compactable sync floor: the task IDs whose ordering the
	// next submission must capture as graph deps. Get(X) both adds X and
	// deletes every id in X.floorIDs — those became deps of X, so ordering
	// through X subsumes them and the floor stays O(live sync points)
	// instead of growing with every Get. synced is the full, never-compacted
	// set of ids this context ever synchronised; it drives the ViaMaster
	// flag on argument deps, which must not forget compacted entries.
	// Invariant: floor ⊆ synced.
	// floorLazy holds barrier results not yet folded into the maps:
	// WaitAll/Barrier synchronise on *every* task, so eagerly inserting each
	// id costs two map writes per task even when the program ends right
	// after the barrier. The ids are folded in (materializeFloorLocked) the
	// next time floor or synced is actually consulted.
	mu        sync.Mutex
	floor     map[int]bool
	synced    map[int]bool
	floorLazy []int
	submitted []*Future
}

// materializeFloorLocked folds pending barrier ids into the floor and
// synced maps. Callers hold tc.mu.
func (tc *TaskCtx) materializeFloorLocked() {
	if len(tc.floorLazy) == 0 {
		return
	}
	if tc.floor == nil {
		tc.floor = make(map[int]bool, len(tc.floorLazy))
		tc.synced = make(map[int]bool, len(tc.floorLazy))
	}
	for _, id := range tc.floorLazy {
		tc.floor[id] = true
		tc.synced[id] = true
	}
	tc.floorLazy = tc.floorLazy[:0]
}

// Submit schedules fn as a task. Arguments may be plain values, *Future, or
// []*Future; futures are dependencies and arrive resolved in fn's args.
//
// The returned Future resolves once fn returned *and* every task fn
// submitted through its own TaskCtx completed (a nested task is not done
// until its children are).
func (tc *TaskCtx) Submit(o Opts, fn TaskFunc, args ...any) *Future {
	return tc.submit(&o, 1, fn, nil, args)[0]
}

// SubmitN schedules a task producing nOut outputs and returns one Future
// per output. All outputs resolve together when the task completes; the
// graph records a single task node (dependents of any output depend on the
// task). This mirrors dislib tasks that fill several blocks at once.
func (tc *TaskCtx) SubmitN(o Opts, nOut int, fn MultiTaskFunc, args ...any) []*Future {
	if nOut <= 0 {
		panic("compss: SubmitN needs nOut >= 1")
	}
	return tc.submit(&o, nOut, nil, fn, args)
}

// SubmitExec schedules the registered backend function o.Exec as a
// single-output task: instead of a closure body, the attempt invokes the
// exec registry — in-process by default, or on a worker process when the
// runtime has a remote Backend. Dependency detection, retries, fault
// injection and observers behave exactly as for Submit. It panics if o.Exec
// is empty or names nothing registered, so typos fail at the submit site.
//
// Registered bodies cannot submit nested tasks (they receive no TaskCtx —
// a worker process has no route back into the coordinator's graph); use
// Submit with a closure for nesting workflows.
func (tc *TaskCtx) SubmitExec(o Opts, args ...any) *Future {
	tc.checkExec(o)
	return tc.submit(&o, 1, nil, nil, args)[0]
}

// SubmitExecN is SubmitExec for a registered function with nOut outputs
// (the exec counterpart of SubmitN).
func (tc *TaskCtx) SubmitExecN(o Opts, nOut int, args ...any) []*Future {
	if nOut <= 0 {
		panic("compss: SubmitExecN needs nOut >= 1")
	}
	tc.checkExec(o)
	return tc.submit(&o, nOut, nil, nil, args)
}

func (tc *TaskCtx) checkExec(o Opts) {
	if o.Exec == "" {
		panic("compss: SubmitExec needs Opts.Exec")
	}
	if !exec.Has(o.Exec) {
		panic(fmt.Sprintf("compss: Opts.Exec %q is not registered (exec.Register it at init)", o.Exec))
	}
}

// eachFuture calls fn on every future among args, in argument order.
func eachFuture(args []any, fn func(*Future)) {
	for _, a := range args {
		switch v := a.(type) {
		case *Future:
			fn(v)
		case []*Future:
			for _, f := range v {
				fn(f)
			}
		}
	}
}

// appendArgDep adds an argument dependency on task id, collapsing duplicate
// future arguments into one edge. ViaMaster follows synced membership: a
// value the context already synchronised travels through the master again
// (synced, unlike the floor, is never compacted, so the flag survives floor
// compaction).
func appendArgDep(deps []graph.Dep, id int, synced map[int]bool) []graph.Dep {
	for i := range deps {
		if deps[i].Task == id {
			return deps
		}
	}
	return append(deps, graph.Dep{Task: id, ViaMaster: synced[id]})
}

// submit is the single submission code path. Exactly one of fn1 / fnN is
// non-nil: Submit passes its TaskFunc as fn1 (no wrapping closure, and the
// single output value travels by copy, not through a fresh []any), SubmitN
// its MultiTaskFunc as fnN.
func (tc *TaskCtx) submit(o *Opts, nOut int, fn1 TaskFunc, fnN MultiTaskFunc, args []any) []*Future {
	if o.Name == "" {
		o.Name = "task"
	}
	if o.Cores == 0 && o.GPUs == 0 {
		o.Cores = 1
	}

	// Dependency detection: futures in args, plus this context's sync
	// floor. Floor entries are tasks this context already synchronised on
	// (their values are at the master), so they only matter for virtual
	// time, never for real execution. An argument whose producer was also
	// synchronised carries its value through the master (ViaMaster); floor
	// entries that are not arguments are pure ordering (OrderOnly).
	//
	// The list is assembled straight into the graph.Dep slice — argument
	// deps first (deduplicated by a linear scan; fan-ins are small), then
	// the floor remainder — so the hot path builds no intermediate maps.
	nArg := 0
	eachFuture(args, func(*Future) { nArg++ })
	tc.mu.Lock()
	tc.materializeFloorLocked()
	var gdeps []graph.Dep
	if n := nArg + len(tc.floor); n > 0 {
		gdeps = make([]graph.Dep, 0, n)
	}
	eachFuture(args, func(f *Future) { gdeps = appendArgDep(gdeps, f.st.id, tc.synced) })
	nArgDeps := len(gdeps)
	var floorIDs []int
	if len(tc.floor) > 0 {
		floorIDs = make([]int, 0, len(tc.floor))
	}
	for id := range tc.floor {
		floorIDs = append(floorIDs, id)
		isArg := false
		for i := 0; i < nArgDeps; i++ {
			if gdeps[i].Task == id {
				isArg = true
				break
			}
		}
		if !isArg {
			gdeps = append(gdeps, graph.Dep{Task: id, ViaMaster: true, OrderOnly: true})
		}
	}
	tc.mu.Unlock()

	// Resolve the effective failure policy now, so the graph records what
	// the replay should emulate.
	retries := o.Retries
	if retries == 0 {
		retries = tc.rt.cfg.DefaultRetries
	}
	if retries < 0 || tc.rt.cfg.OnTaskFailure == FailFast {
		retries = 0 // negative Opts.Retries is an explicit opt-out
	}
	backoff := o.Backoff
	if backoff <= 0 {
		backoff = tc.rt.cfg.DefaultBackoff
	}
	if backoff < 0 {
		backoff = 0
	}
	o.Retries, o.Backoff = retries, backoff

	gt := graph.Task{
		Name:       o.Name,
		Parent:     tc.parent,
		Deps:       gdeps,
		Cost:       o.Cost,
		Cores:      o.Cores,
		GPUs:       o.GPUs,
		OutBytes:   o.OutBytes,
		Retries:    retries,
		BackoffSec: backoff,
	}
	// The occurrence index only feeds fault matching; without a fault plan
	// the cheaper Append skips the graph's per-name counter map.
	var id, occ int
	if tc.rt.cfg.Faults == nil {
		id = tc.rt.g.Append(&gt)
	} else {
		id, occ = tc.rt.g.AddCounted(gt)
	}

	st := tc.rt.ex.allocTask(tc.wkr)
	st.id, st.name, st.occ, st.retries = id, o.Name, occ, retries
	st.fallback, st.execName = o.Fallback, o.Exec
	st.fn1, st.fnN, st.nOut, st.args = fn1, fnN, nOut, args
	st.floorIDs = floorIDs
	st.ctx0.rt = tc.rt // a future keeps its runtime, and so its session, alive
	// Count before registering: every future argument plus one submission
	// sentinel. A producer may complete (and decrement) the instant it has
	// this task as a child, so its count must already be in pending.
	st.pending.Store(int32(1 + nArg))
	var futs []*Future
	if nOut == 1 {
		st.vals = st.val1[:]
		st.fut1 = Future{st: st}
		st.futp1[0] = &st.fut1
		futs = st.futp1[:]
	} else {
		st.vals = make([]any, nOut)
		futs = make([]*Future, nOut)
		for i := range futs {
			futs[i] = &Future{st: st, idx: i}
		}
	}

	tc.mu.Lock()
	if tc.submitted == nil {
		tc.submitted = make([]*Future, 0, 16)
	}
	tc.submitted = append(tc.submitted, futs[0])
	tc.mu.Unlock()

	// Emit before dependency wiring so Submit is causally first in the
	// task's event sequence (wiring can make the task ready immediately).
	tc.rt.emit(EventSubmit, st, -1, nil, "", false)

	// Wire argument dependencies: register this task as a child of every
	// still-running producer. A producer that already completed will never
	// decrement pending, so its count is dropped here together with the
	// sentinel; duplicate future arguments are symmetric (counted and
	// registered once per occurrence).
	settled := int32(1)
	eachFuture(args, func(f *Future) {
		if !tryAddChild(f.st, st) {
			settled++
		}
	})
	// If every producer already finished, the task is ready here, on the
	// submitter — a body submit pushes straight to its own worker's deque
	// without touching any runtime-global state.
	if st.pending.Add(-settled) == 0 {
		tc.rt.becomeReady(st, tc.wkr)
	}
	return futs
}

// tryAddChild registers c as a completion child of p, reporting false when p
// already completed (its children were drained; the caller must not count a
// pending dependency on it).
func tryAddChild(p, c *taskState) bool {
	p.chMu.Lock()
	defer p.chMu.Unlock()
	if p.completed.Load() {
		return false
	}
	p.children = append(p.children, c)
	return true
}

// becomeReady fires when a task's last argument producer completed (or
// immediately at submit, for tasks with no pending producers): it screens
// the producers for failures, then enqueues the task on w's deque — the
// submitting or completing worker, preserving locality.
//
// The failure screen walks the arguments in their original order, so the
// reported dependency error is the first failing argument. A failed
// dependency means the body never runs; the task still emits a terminal
// "deps" failure event so observers (and through them a StatsObserver)
// account for every graph node, and still completes so its own dependents
// cascade.
func (rt *Runtime) becomeReady(st *taskState, w *worker) {
	if st.chained.Load() {
		return // it ran, or is running, inside a chain: finishChain completes it
	}
	var depErr error
	eachFuture(st.args, func(f *Future) {
		if depErr == nil {
			depErr = f.st.err
		}
	})
	if depErr != nil {
		rt.failDepsCascade(st, depErr, w)
		return
	}
	rt.emit(EventDepsReady, st, -1, nil, "", false)
	rt.ex.enqueue(st, w)
}

// failDepsCascade terminates a task whose dependency failed and propagates
// readiness to its own children (which will fail the same screen in turn).
func (rt *Runtime) failDepsCascade(st *taskState, err error, w *worker) {
	rt.failDeps(st, err)
	rt.complete(st, w)
}

// complete marks st completed (closing its done channel, when a waiter
// materialized one) and decrements every registered child's pending count,
// making the last-dependency children ready on the completing worker's
// deque. Runs on whichever goroutine finished the task. The caller must
// have published st.vals / st.err before calling: the completed store is
// the release waiters synchronise on.
func (rt *Runtime) complete(st *taskState, w *worker) {
	st.letGo()
	st.chMu.Lock()
	st.completed.Store(true)
	if st.done != nil {
		close(st.done)
	}
	kids := st.children
	st.children = nil
	st.chMu.Unlock()
	for _, c := range kids {
		if c.pending.Add(-1) == 0 {
			rt.becomeReady(c, w)
		}
	}
}

// letGo drops what only running st needed — its body, its argument list and
// its fallback — once its outputs are published: a completed main-program
// task stays reachable from Main().submitted for the runtime's life, and a
// nested one from its parent's, so whatever a completed task still points at
// lives as long. A task with an output held on a worker keeps args, which its
// lineage rerun reads (held.go).
func (st *taskState) letGo() {
	st.fn1, st.fnN, st.fallback = nil, nil, nil
	for _, v := range st.vals {
		if _, held := v.(*exec.Held); held {
			return
		}
	}
	st.args = nil
}

// runReady executes a ready task to completion: resolve the (already
// available) argument values, then loop over attempts — acquire a worker
// slot, run the body inline (with panic containment and fault injection),
// wait for the attempt's nested children — retrying while the
// budget lasts, and finally publish the value, the declared fallback
// (Degrade), or the failure. Each transition emits the matching Observer
// event (see observer.go for the guaranteed per-task sequences); the
// StatsObserver derives the legacy TaskStats entirely from this stream.
// stolen records whether this task migrated off the deque it was enqueued
// on, purely for Observer/Stats attribution.
func (rt *Runtime) runReady(st *taskState, w *worker, stolen bool) {
	st.stolen = stolen
	id, nOut := st.id, st.nOut
	if st.execName == "" && rt.holder != nil {
		// A body that runs here reads its arguments here.
		if err := rt.restore(st.args); err != nil {
			rt.failDepsCascade(st, err, w)
			return
		}
	}
	resolved := rt.resolveArgs(st.args, nil)
	var chain *chainRun

	for attempt := 0; ; attempt++ {
		rt.sem.acquire()
		rt.emit(EventStart, st, attempt, nil, "", false)
		// Attempt 0 uses the context embedded in the taskState; retries get
		// a fresh one, so a retry starts with an empty sync floor and no
		// submitted children.
		var child *TaskCtx
		if attempt == 0 {
			child = &st.ctx0
			child.rt, child.parent, child.insideTask = rt, id, true
		} else {
			child = &TaskCtx{rt: rt, parent: id, insideTask: true}
		}
		child.wkr = w
		res := rt.execAttempt(st, child, attempt, nOut, st.fn1, st.fnN, resolved)
		rt.sem.release()
		chain = res.chain
		// The body is done and the slot released; End events are stamped
		// here so End−Start measures body execution, not the bookkeeping
		// (nested-children wait) below. With no observers attached the
		// stamp is skipped — the clock read is measurable on the dispatch
		// hot path — and taken lazily on the (cold) failure branches,
		// which feed it to the graph's failure record.
		var bodyDone time.Time
		if rt.obs.Load() != nil {
			bodyDone = time.Now()
			if chain != nil {
				bodyDone = chain.headEnd // the followers ran after it, before now
			}
		}

		// An attempt is not complete until its children are; a child failure
		// fails the attempt, so the retry covers the whole nested subtree.
		_, cerr := child.waitSubmitted(false)
		if res.err == nil && cerr != nil {
			res = attemptResult{
				err:  &TaskError{ID: id, Name: st.name, Err: fmt.Errorf("nested task failed: %w", cerr)},
				mode: "error",
				frac: 1,
			}
		}
		if res.err == nil {
			if res.vals != nil {
				st.vals = res.vals
			} else {
				st.vals[0] = res.val // single-output fast path (nOut == 1)
			}
			st.last = int32(attempt)
			if bodyDone.IsZero() && rt.obs.Load() != nil {
				bodyDone = time.Now() // observer attached mid-attempt
			}
			rt.emitAt(EventEnd, st, attempt, bodyDone, nil, "", false, res.worker)
			break
		}
		if bodyDone.IsZero() {
			bodyDone = time.Now() // observers were off at body return
		}
		rt.g.RecordFailure(graph.FailureEvent{
			Task: id, Attempt: attempt, Mode: res.mode, CostFraction: res.frac, At: bodyDone,
		})
		if attempt < st.retries {
			rt.emitAt(EventFailure, st, attempt, bodyDone, res.err, res.mode, false, res.worker)
			rt.emit(EventRetry, st, attempt+1, nil, "", false)
			continue
		}
		if rt.cfg.OnTaskFailure == Degrade {
			if vals, ok := fallbackValues(st.fallback, nOut); ok {
				st.vals = vals
				st.degraded = true
				rt.g.MarkDegraded(id)
				rt.emitAt(EventFailure, st, attempt, bodyDone, res.err, res.mode, false, res.worker)
				rt.emit(EventDegrade, st, attempt, nil, "", false)
				break
			}
		}
		st.err = res.err
		rt.emitAt(EventFailure, st, attempt, bodyDone, res.err, res.mode, true, res.worker)
		break
	}
	rt.complete(st, w)
	if chain != nil {
		rt.finishChain(chain, w)
	}
}

// resolveArgs replaces the futures among a ready task's arguments by their
// values. A future produced by a member of chain (nil outside chain dispatch)
// has no value yet and becomes the exec.ValueRef its worker will find it
// under; an output a worker holds stays its *exec.Held marker, which a
// backend task passes on as it is, unless the value is home already.
func (rt *Runtime) resolveArgs(args []any, chain []*taskState) []any {
	if len(args) == 0 {
		return nil
	}
	value := func(f *Future) any {
		if inChain(chain, f.st) {
			return exec.ValueRef{Session: rt.execSession, Task: f.st.id, Out: f.idx}
		}
		v := f.st.vals[f.idx]
		if h, ok := v.(*exec.Held); ok {
			if home, ok := h.Value(); ok {
				return home
			}
		}
		return v
	}
	resolved := make([]any, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case *Future:
			resolved[i] = value(v)
		case []*Future:
			vals := make([]any, len(v))
			for j, f := range v {
				vals[j] = value(f)
			}
			resolved[i] = vals
		default:
			resolved[i] = a
		}
	}
	return resolved
}

// failDeps records a dep-resolution failure: a collapsed DepError, surfaced
// to observers as a terminal Failure with Attempt -1 and Mode "deps".
func (rt *Runtime) failDeps(st *taskState, err error) {
	st.err = depError(st.id, st.name, err)
	rt.emit(EventFailure, st, -1, st.err, "deps", true)
}

// attemptResult is one attempt's outcome; mode and frac feed the graph's
// failure record when err is non-nil.
type attemptResult struct {
	vals []any
	val  any // the output when vals is nil: single-output bodies pass it by copy
	err  error
	mode string  // "error" or "panic"
	frac float64 // virtual cost fraction consumed before the failure instant
	// worker identifies the execution-backend worker that ran the attempt;
	// "" for in-process execution (including every non-Exec task).
	worker string
	// chain is set when the attempt ran as the head of a chain and followers
	// ran with it: they complete once the head has (finishChain).
	chain *chainRun
}

// execAttempt runs one attempt of the task body inline, inside the caller's
// worker slot and on the caller's goroutine: fault injection swaps the body
// for a doomed one, and panics become errors.
func (rt *Runtime) execAttempt(st *taskState, child *TaskCtx, attempt, nOut int, fn1 TaskFunc, fnN MultiTaskFunc, resolved []any) (res attemptResult) {
	frac := 1.0
	if f := rt.cfg.Faults.match(st.id, st.name, st.occ, attempt); f != nil {
		frac = f.fraction()
		fn1, fnN = nil, injectedBody(attempt, f.Mode)
	}
	defer func() {
		if r := recover(); r != nil {
			res = attemptResult{
				err:  &TaskError{ID: st.id, Name: st.name, Err: fmt.Errorf("panic: %v", r)},
				mode: "panic",
				frac: frac,
			}
		}
	}()
	switch {
	case fn1 != nil:
		v, err := fn1(child, resolved)
		if err != nil {
			return attemptResult{err: &TaskError{ID: st.id, Name: st.name, Err: err}, mode: "error", frac: frac}
		}
		return attemptResult{val: v}
	case fnN != nil:
		vals, err := fnN(child, resolved)
		switch {
		case err != nil:
			return attemptResult{err: &TaskError{ID: st.id, Name: st.name, Err: err}, mode: "error", frac: frac}
		case len(vals) != nOut:
			return attemptResult{
				err:  &TaskError{ID: st.id, Name: st.name, Err: fmt.Errorf("returned %d values, declared %d", len(vals), nOut)},
				mode: "error",
				frac: 1,
			}
		}
		return attemptResult{vals: vals}
	default:
		// Exec-named body (SubmitExec): dispatch through the backend.
		// Injected faults never reach here — the injected body replaced
		// fnN above, so a fault-plan entry fails the attempt without a wire
		// round-trip, exactly as it bypasses closure bodies.
		return rt.execBody(st, attempt, nOut, resolved)
	}
}

// execBody runs one attempt of an Opts.Exec-named task. With a Backend
// attached the attempt is the backend's problem (an exec.Remote ships it to
// a worker process and the returned worker id lands on the End/Failure
// event); without one it is a direct registry call — the single-output
// local path passes the value by copy, so an in-process exec task costs the
// same as a closure body.
//
// The backend request carries the task's identity (execSession + id) and
// the provenance of every future-valued argument (exec.ArgRef), so a
// data-plane backend can place the attempt near resident inputs and pass
// references instead of values. The resolved values always travel too —
// identity is a hint, never a dependency.
//
// A first attempt over a chain backend takes along every task only it still
// holds back (chain.go); alone, it is the ordinary ExecuteTask.
func (rt *Runtime) execBody(st *taskState, attempt, nOut int, resolved []any) attemptResult {
	name := st.execName
	if rt.cfg.Backend != nil {
		if attempt == 0 && rt.chains != nil {
			if chain := collectChain(st); len(chain) > 1 {
				// A lost argument, and nothing was sent: the followers are back
				// with the scheduler, the head goes alone past the loss.
				if res := rt.execChain(chain, resolved); !errors.Is(res.err, exec.ErrLost) {
					return res
				}
			}
		}
		vals, worker, err := rt.dispatch(st, resolved, false)
		if err != nil {
			return attemptResult{
				err:    &TaskError{ID: st.id, Name: st.name, Err: err},
				mode:   "error",
				frac:   1,
				worker: worker,
			}
		}
		if nOut == 1 {
			return attemptResult{val: vals[0], worker: worker}
		}
		return attemptResult{vals: vals, worker: worker}
	}
	f1, fN, ok := exec.Fns(name)
	if f1 != nil && nOut == 1 {
		v, err := f1(resolved)
		if err != nil {
			return attemptResult{err: &TaskError{ID: st.id, Name: st.name, Err: err}, mode: "error", frac: 1}
		}
		return attemptResult{val: v}
	}
	var vals []any
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("exec function %q is not registered", name)
	case fN == nil:
		err = fmt.Errorf("exec function %q has 1 output, %d declared", name, nOut)
	default:
		vals, err = fN(resolved)
		if err == nil && len(vals) != nOut {
			err = fmt.Errorf("exec function %q returned %d values, declared %d", name, len(vals), nOut)
		}
	}
	if err != nil {
		return attemptResult{err: &TaskError{ID: st.id, Name: st.name, Err: err}, mode: "error", frac: 1}
	}
	return attemptResult{vals: vals}
}

// request builds st's backend request from its resolved arguments. The
// outputs may stay on the worker unless someone is known to read them here.
// redo marks the rerun of a task that completed before (held.go).
func (rt *Runtime) request(st *taskState, resolved []any, chain []*taskState, redo bool) *exec.Request {
	return &exec.Request{
		Name: st.execName, NOut: st.nOut, Args: resolved,
		Session: rt.execSession, TaskID: st.id,
		ArgRefs: argRefs(st.args, rt.execSession, chain),
		Hold:    !redo && rt.holder != nil && !st.readHere(), Redo: redo,
	}
}

// argRefs derives the exec.ArgRef provenance list from a task's raw
// (unresolved) argument list: each *Future argument — and each element of a
// []*Future argument — is the (session, producing-task, output) triple the
// data plane caches values under. Plain-value arguments carry no ref, and
// neither do futures a member of chain produces: resolveArgs already put
// their bare ValueRefs among the values.
func argRefs(args []any, session uint64, chain []*taskState) []exec.ArgRef {
	if session == 0 {
		return nil
	}
	var refs []exec.ArgRef
	for i, a := range args {
		switch v := a.(type) {
		case *Future:
			if inChain(chain, v.st) {
				continue
			}
			refs = append(refs, exec.ArgRef{
				Arg: i, Elem: -1,
				Ref: exec.ValueRef{Session: session, Task: v.st.id, Out: v.idx},
			})
		case []*Future:
			for j, f := range v {
				if inChain(chain, f.st) {
					continue
				}
				refs = append(refs, exec.ArgRef{
					Arg: i, Elem: j,
					Ref: exec.ValueRef{Session: session, Task: f.st.id, Out: f.idx},
				})
			}
		}
	}
	return refs
}

// fallbackValues validates a declared fallback against the task's output
// arity, returning the values to publish.
func fallbackValues(fb any, nOut int) ([]any, bool) {
	if fb == nil {
		return nil, false
	}
	if nOut == 1 {
		return []any{fb}, true
	}
	if vs, ok := fb.([]any); ok && len(vs) == nOut {
		return vs, true
	}
	return nil, false
}

// Get blocks until f's value is available and raises this context's sync
// floor: tasks submitted afterwards in this context will not start, in
// virtual time, before the synchronised data reached the master process.
//
// A task body waits from its own goroutine — the one the runtime called it
// on, as every body in this module does: the wait hands that goroutine's
// worker slot back while it helps, and takes one again before it returns.
func (tc *TaskCtx) Get(f *Future) (any, error) {
	tc.wantHere(f)
	v, err := tc.blockingWait(f)
	tc.raiseFloor(f)
	if _, held := v.(*exec.Held); held {
		vals, err := tc.rt.values([]*Future{f}) // the batch of one
		return vals[0], err
	}
	return v, err
}

// wantHere tells a task still to run that f will be read on this side.
func (tc *TaskCtx) wantHere(f *Future) {
	if tc.rt.holder != nil && !f.st.completed.Load() {
		f.st.want.Store(true)
	}
}

// raiseFloor is the bookkeeping of a synchronisation on f.
func (tc *TaskCtx) raiseFloor(f *Future) {
	tc.mu.Lock()
	tc.materializeFloorLocked()
	if tc.floor == nil {
		tc.floor = map[int]bool{}
		tc.synced = map[int]bool{}
	}
	tc.floor[f.st.id] = true
	tc.synced[f.st.id] = true
	// Compact: every id the awaited task snapshotted from a sync floor at
	// submission became one of its graph deps, so ordering through it
	// subsumes them — without this the floor grows by one per Get and every
	// later Submit pays a linear scan over it (the old quadratic wall).
	for _, id := range f.st.floorIDs {
		delete(tc.floor, id)
	}
	tc.mu.Unlock()
}

// blockingWait waits for a future by helping: it runs ready tasks inline
// until the target completes, parking only when the queues are empty. The
// main program (or any non-task context) just helps. A body — running inline
// on a carrier or helper goroutine — hands its worker slot back to the pool
// first and reacquires one before resuming, so nested tasks cannot deadlock
// the pool and the blocked body's goroutine keeps contributing throughput.
func (tc *TaskCtx) blockingWait(f *Future) (any, error) {
	if f.st.completed.Load() { // already resolved: a body keeps its slot
		return f.wait()
	}
	rng := tc.rt.ex.nextSeed()
	if !tc.insideTask {
		tc.rt.ex.helpUntilDone(nil, &rng, f.st)
		return f.wait()
	}
	tc.rt.sem.release() // hand the slot back; release never blocks
	tc.rt.ex.helpUntilDone(tc.wkr, &rng, f.st)
	tc.rt.sem.acquire()
	return f.wait()
}

// WaitAll is a local barrier: it waits for every task submitted through
// this context and raises the floor past all of them. It returns the first
// error among them (in submission order). A body calls it from its own
// goroutine, as Get.
func (tc *TaskCtx) WaitAll() error {
	fs, err := tc.waitSubmitted(tc.insideTask)
	tc.mu.Lock()
	for _, f := range fs {
		tc.floorLazy = append(tc.floorLazy, f.st.id)
	}
	tc.mu.Unlock()
	return err
}

// barrierAll is the main context's WaitAll with the floor raised past every
// task in the graph (Runtime.Barrier): waiting on the main program's tasks
// waits on every task, since a task completes only after its children.
func (tc *TaskCtx) barrierAll() error {
	n := tc.rt.g.Len()
	_, err := tc.waitSubmitted(false)
	tc.mu.Lock()
	tc.floorLazy = slices.Grow(tc.floorLazy, n)
	for id := 0; id < n; id++ {
		tc.floorLazy = append(tc.floorLazy, id)
	}
	tc.mu.Unlock()
	return err
}

// waitSubmitted is the one wait loop over a context's tasks — WaitAll,
// Barrier, and the implicit wait when a task body returns. It helps until
// every task submitted so far completed, running the very tasks it waits for
// when nothing else claimed them, and returns them with the error of the
// failed one with the lowest id: submission order, since ids are assigned
// at submit. A body still holding its attempt's worker slot (holdsSlot)
// hands it back once, and only if it has to wait.
func (tc *TaskCtx) waitSubmitted(holdsSlot bool) ([]*Future, error) {
	tc.mu.Lock()
	fs := tc.submitted // append-only: the prefix never changes
	tc.mu.Unlock()
	var err error
	var errID int
	var rng uint64 // nonzero once this wait helped
	for _, f := range fs {
		st := f.st
		if !st.completed.Load() {
			if rng == 0 {
				rng = tc.rt.ex.nextSeed()
				if holdsSlot {
					tc.rt.sem.release() // release never blocks
				}
			}
			tc.rt.ex.helpUntilDone(tc.wkr, &rng, st)
		}
		if st.err != nil && (err == nil || st.id < errID) {
			err, errID = st.err, st.id
		}
	}
	if holdsSlot && rng != 0 {
		tc.rt.sem.acquire()
	}
	return fs, err
}

// GetAll resolves a slice of futures with Get semantics and returns the
// values. It fails on the first error. Outputs that workers hold come home
// together once all are there: a round trip a worker, not one a future. A
// body calls it from its own goroutine, as Get.
func (tc *TaskCtx) GetAll(fs []*Future) ([]any, error) {
	for _, f := range fs {
		tc.wantHere(f)
	}
	for _, f := range fs {
		_, err := tc.blockingWait(f)
		tc.raiseFloor(f)
		if err != nil {
			return nil, err
		}
	}
	return tc.rt.values(fs)
}
