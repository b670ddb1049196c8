package compss

import (
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
	// (exactly one attempt, even when the default is positive). Once the
	// budget is spent the task fails, and so do its dependents. Retried
	// attempts re-run immediately in real time — backoff exists only in the
	// replayed schedule, so failure handling stays deterministic.
	Retries int
	// Backoff is the virtual-time base delay, in seconds, between a failed
	// attempt and its retry: the retry after failed attempt k (0-based)
	// re-queues Backoff·2^k after the failure instant, so the first retry
	// waits the base. 0 falls back to Config.DefaultBackoff. Like Cost it
	// never affects real execution.
	Backoff float64
	// Exec names a registered execution-backend function (exec.Register)
	// standing in for the task body: the attempt runs through
	// Config.Backend when one is attached — typically on a remote worker
	// process — and through an in-process registry call otherwise, with
	// identical semantics. Tasks submitted with SubmitExec/SubmitExecN set
	// it; tasks with a closure body leave it empty and always run
	// in-process. Retries and fault injection apply identically either
	// way: a backend failure (worker crash, dropped connection) is an
	// attempt failure like any other.
	Exec string
}

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
	// DefaultRetries is the retry budget for tasks that leave Opts.Retries
	// at 0. With none, a task's first failed attempt is final.
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
	main *TaskCtx

	// detached is the context Detached returns; detachedN counts its tasks,
	// whose ids it hands out.
	detached  *TaskCtx
	detachedN atomic.Int64

	// ex is the work-stealing executor (see executor.go): per-worker ready
	// deques and the carrier/parking machinery. Neither it nor the runtime
	// keeps a task list: Barrier walks the main context's submissions.
	ex *executor

	// obs is the observer list, stored once by New; nil when no observer
	// is attached (the zero-cost default).
	obs atomic.Pointer[[]Observer]

	// execSession is this runtime's exec-backend session token (see
	// exec.NextSession): it scopes the runtime's task ids in worker future
	// caches, so sequential or concurrent runtimes sharing one backend can
	// never alias each other's cached outputs. 0 when no Backend is
	// attached.
	execSession uint64
	rel         *release // given back once nothing can reach the runtime (New)
}

// release is a runtime's claim on its backend: the session the backend
// holds values under. It points at nothing of the runtime, so it becomes
// unreachable with it, and its finalizer lets go.
type release struct {
	session uint64
	backend exec.Backend
}

func (r *release) run() {
	go r.backend.Forget(r.session) // it writes to sockets: not on the finalizer goroutine
}

// New creates a runtime.
//
// Its parallelism is fixed here: the executor's deques, carriers and slots
// are sized to max(Workers, the backend's SlotTotal() now). A worker that
// joins the fleet later makes up for one that was lost and is fully used by
// runtimes created after it.
//
// A runtime has no Close. Once nothing can reach it — every Future, TaskCtx
// and running body leads back to it — a finalizer has its backend forget its
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
	if cfg.Backend != nil {
		w = max(w, cfg.Backend.SlotTotal())
	}
	rt := &Runtime{
		g:   graph.New(),
		cfg: cfg,
	}
	rt.ex = newExecutor(rt, w)
	if cfg.Backend != nil {
		rt.execSession = exec.NextSession()
		rt.rel = &release{session: rt.execSession, backend: cfg.Backend}
		runtime.SetFinalizer(rt.rel, (*release).run)
	}
	if len(cfg.Observers) > 0 {
		obs := make([]Observer, len(cfg.Observers))
		copy(obs, cfg.Observers)
		rt.obs.Store(&obs)
	}
	rt.main = &TaskCtx{rt: rt, parent: -1, insideTask: false}
	rt.detached = &TaskCtx{rt: rt, parent: -1, detached: true}
	return rt
}

// Slots returns how many attempts run at once: the executor's width, fixed
// at New.
func (rt *Runtime) Slots() int { return rt.ex.maxProcs }

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

// Detached returns the context for tasks the workflow graph does not record,
// such as a server's scoring batches. A task submitted through it — or
// through a detached task's own context — runs like any other: retries, the
// failure that follows them, a fault plan's Name entries and the observer
// events apply as they do to a recorded task. But once it completes it has left nothing
// behind: no graph node; no entry in a context's submitted list, sync floor
// or synced set; and nothing on a worker, because its id, drawn from its own
// negative sequence, makes it anonymous to a backend (exec.Request.TaskID).
// A long-lived server therefore keeps a flat heap and an unchanged Graph()
// however many batches it scores — serve's TestServeSoakLeavesNothingBehind
// pushes 10⁶ of them. Barrier and WaitAll do not wait for detached tasks:
// wait on their futures. A recorded task cannot take a detached future as an
// argument; Submit panics at the call.
func (rt *Runtime) Detached() *TaskCtx { return rt.detached }

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
	retries int // effective retry budget after Config defaults
	// The one Opts field execution needs after submit; carrying it instead
	// of the whole Opts keeps the per-task record (and its zeroing on the
	// submit hot path) small.
	execName string
	// done is the completion broadcast channel, allocated lazily by
	// doneChan: most tasks finish before anyone parks on them and never
	// pay for one. completed is the authoritative flag — waiters poll it
	// with one atomic load and only materialize the channel to sleep.
	done chan struct{}
	vals []any
	err  error

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
	floorIDs idSet

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
	// last is the attempt that made vals, counted on by reruns of a task whose
	// held outputs were lost (held.go; chMu serialises them). It sits, like
	// want above, in what would be padding (TestTaskChunkKeepsItsSizeClass).
	last int32

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

// TaskID returns the graph ID of the producing task, or a negative id when
// the task is detached (Runtime.Detached) and so has none.
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
	detached   bool // its submissions are detached (Runtime.Detached)

	// wkr is the deque the executing carrier owns — nested submits push
	// there, the lock-free fast path — and is nil for main and for a body the
	// main program ran while it helped. A body runs inline on the carrier or
	// helper goroutine that dispatched it, holding the worker slot its
	// attempt acquired, and blocks by helping (blockingWait, waitSubmitted).
	wkr *worker

	// floor is the compactable sync floor: the task IDs whose ordering the
	// next submission must capture as graph deps. Get(X) both adds X and
	// removes every id in X.floorIDs — those became deps of X, so ordering
	// through X subsumes them and the floor stays O(live sync points)
	// instead of growing with every Get. WaitAll adds the context's own ids
	// and Barrier the range 0..n, each a few ranges however many tasks they
	// cover. synced is every id this context ever synchronised; it drives the
	// ViaMaster flag on argument deps, which must not forget compacted
	// entries. Invariant: floor ⊆ synced.
	//
	// submitted holds the futures of the tasks submitted here that have not
	// completed cleanly — a failure stays, WaitAll reports it — and own the id
	// of every task submitted here, past which WaitAll raises the floor. So a
	// context, the main one included, keeps what is outstanding, not what it
	// has run: a completed task is dropped when submitted would grow
	// (compactLocked) and lives only as long as someone holds its Future.
	//
	// A detached context (Runtime.Detached) records none of this: its tasks
	// have no graph node to order, and it keeps submitted only inside a
	// detached body, for the attempt's wait on its children.
	mu        sync.Mutex
	floor     idSet
	synced    idSet
	submitted []*Future
	own       idSet
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
func appendArgDep(deps []graph.Dep, id int, synced idSet) []graph.Dep {
	for i := range deps {
		if deps[i].Task == id {
			return deps
		}
	}
	return append(deps, graph.Dep{Task: id, ViaMaster: synced.has(id)})
}

// graphDeps assembles a recorded submission's graph deps — the nArg future
// arguments first, then the sync floor in ascending id order, so the same
// program records the same graph — and snapshots the floor (see submit).
func (tc *TaskCtx) graphDeps(args []any, nArg int) (gdeps []graph.Dep, floorIDs idSet) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	n := nArg
	for _, r := range tc.floor {
		n += r.hi - r.lo
	}
	if n > 0 {
		gdeps = make([]graph.Dep, 0, n)
	}
	eachFuture(args, func(f *Future) { gdeps = appendArgDep(gdeps, f.st.id, tc.synced) })
	nArgDeps := len(gdeps)
	for _, r := range tc.floor {
		for id := r.lo; id < r.hi; id++ {
			if !slices.ContainsFunc(gdeps[:nArgDeps], func(d graph.Dep) bool { return d.Task == id }) {
				gdeps = append(gdeps, graph.Dep{Task: id, ViaMaster: true, OrderOnly: true})
			}
		}
	}
	return gdeps, slices.Clone(tc.floor)
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
	//
	// A detached task has no graph node, so it records none of this; and a
	// recorded task cannot depend on one, which no graph node could name.
	nArg := 0
	eachFuture(args, func(f *Future) {
		nArg++
		if f.st.id < 0 && !tc.detached {
			panic(fmt.Sprintf("compss: %q takes the future of detached task %d: only a detached task can (Runtime.Detached)", o.Name, f.st.id))
		}
	})
	var gdeps []graph.Dep
	var floorIDs idSet
	if !tc.detached {
		gdeps, floorIDs = tc.graphDeps(args, nArg)
	}

	// Resolve the effective retry budget now, so the graph records what the
	// replay should emulate.
	retries := o.Retries
	if retries == 0 {
		retries = tc.rt.cfg.DefaultRetries
	}
	if retries < 0 {
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
	// A detached task draws -2, -3, … instead of a graph id: below every
	// graph id and below the -1 that names the main program as a parent, and
	// anonymous to a backend.
	var id int
	if tc.detached {
		id = -1 - int(tc.rt.detachedN.Add(1))
	} else {
		id = tc.rt.g.Append(&gt)
	}

	st := tc.rt.ex.allocTask(tc.wkr)
	st.id, st.name, st.retries = id, o.Name, retries
	st.execName = o.Exec
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

	if !tc.detached || tc.insideTask {
		tc.mu.Lock()
		if len(tc.submitted) == cap(tc.submitted) {
			tc.compactLocked()
		}
		tc.submitted = append(tc.submitted, futs[0])
		tc.own.add(id)
		tc.mu.Unlock()
	}

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

// compactLocked takes the place of growing a full submitted: it drops the
// futures of the tasks that completed cleanly — a wait has nothing to wait
// for or report there, and own keeps their ids — into a copy with room for
// as many again, so it costs a submit O(1) amortised. It copies rather than
// filters in place: a wait may be walking the old slice. Callers hold tc.mu.
func (tc *TaskCtx) compactLocked() {
	keep := func(f *Future) bool { return !f.st.completed.Load() || f.st.err != nil }
	n := 0
	for _, f := range tc.submitted {
		if keep(f) {
			n++
		}
	}
	kept := make([]*Future, 0, max(2*n, 16))
	for _, f := range tc.submitted {
		if keep(f) {
			kept = append(kept, f)
		}
	}
	tc.submitted = kept
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

// letGo drops what only running st needed — its body and its argument list —
// once its outputs are published: a completed main-program task stays
// reachable from Main().submitted for the runtime's life, and a nested one
// from its parent's, so whatever a completed task still points at lives as
// long. A task with an output held on a worker keeps args, which its
// lineage rerun reads (held.go).
func (st *taskState) letGo() {
	st.fn1, st.fnN = nil, nil
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
// budget lasts, and finally publish the value or the failure, which fails
// the task's dependents too. Each transition emits the matching Observer
// event (see observer.go for the guaranteed per-task sequences); the
// StatsObserver derives the legacy TaskStats entirely from this stream.
// stolen records whether this task migrated off the deque it was enqueued
// on, purely for Observer/Stats attribution.
func (rt *Runtime) runReady(st *taskState, w *worker, stolen bool) {
	st.stolen = stolen
	id, nOut := st.id, st.nOut
	if st.execName == "" && rt.cfg.Backend != nil {
		// A body that runs here reads its arguments here.
		if err := rt.restore(st.args); err != nil {
			rt.failDepsCascade(st, err, w)
			return
		}
	}
	resolved := rt.resolveArgs(st.args, nil)
	var chain *chainRun

	for attempt := 0; ; attempt++ {
		rt.ex.acquire(w)
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
		child.wkr, child.detached = w, id < 0
		res := rt.execAttempt(st, child, attempt, nOut, st.fn1, st.fnN, resolved)
		rt.ex.release()
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
		cerr := child.waitSubmitted(false, nil)
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
		if id >= 0 {
			rt.g.RecordFailure(graph.FailureEvent{
				Task: id, Attempt: attempt, Mode: res.mode, CostFraction: res.frac, At: bodyDone,
			})
		}
		if attempt < st.retries {
			rt.emitAt(EventFailure, st, attempt, bodyDone, res.err, res.mode, false, res.worker)
			rt.emit(EventRetry, st, attempt+1, nil, "", false)
			continue
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
	if f := rt.cfg.Faults.match(rt.g, st.id, st.name, attempt); f != nil {
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
// event): a first attempt, on a runtime without a fault plan, takes along
// every task only it still holds back (chain.go). Without one it is
// exec.Invoke, the registry call the worker loop makes too.
//
// The backend request carries the task's identity (execSession + id) and
// the provenance of every future-valued argument (exec.ArgRef), so a
// data-plane backend can place the attempt near resident inputs and pass
// references instead of values. The resolved values always travel too —
// identity is a hint, never a dependency.
func (rt *Runtime) execBody(st *taskState, attempt, nOut int, resolved []any) attemptResult {
	if rt.cfg.Backend != nil {
		chain := []*taskState{st}
		if attempt == 0 && rt.cfg.Faults == nil {
			chain = collectChain(st)
		}
		return rt.ship(chain, resolved, false)
	}
	vals, err := exec.Invoke(st.execName, nOut, resolved)
	if err != nil {
		return attemptResult{err: &TaskError{ID: st.id, Name: st.name, Err: err}, mode: "error", frac: 1}
	}
	if nOut == 1 {
		return attemptResult{val: vals[0]}
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
		Hold:    !redo && !st.readHere(), Redo: redo,
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
	if tc.rt.cfg.Backend != nil && !f.st.completed.Load() {
		f.st.want.Store(true)
	}
}

// raiseFloor is the bookkeeping of a synchronisation on f: none when either
// side is detached, since no graph dep will name it.
func (tc *TaskCtx) raiseFloor(f *Future) {
	if tc.detached || f.st.id < 0 {
		return
	}
	tc.mu.Lock()
	tc.floor.add(f.st.id)
	tc.synced.add(f.st.id)
	// Compact: every id the awaited task snapshotted from a sync floor at
	// submission became one of its graph deps, so ordering through it
	// subsumes them — without this the floor grows by one per Get and every
	// later Submit pays a linear scan over it (the old quadratic wall).
	for _, r := range f.st.floorIDs {
		tc.floor.removeRange(r.lo, r.hi)
	}
	tc.mu.Unlock()
}

// blockingWait waits for a future by helping: it runs ready tasks inline
// until the target completes, parking only when the queues are empty. The
// main program (or any non-task context) just helps. A body — running inline
// on a carrier or helper goroutine — hands its worker slot back first and
// reacquires one before resuming, so nested tasks cannot deadlock the slots
// and the blocked body's goroutine keeps contributing throughput.
func (tc *TaskCtx) blockingWait(f *Future) (any, error) {
	if f.st.completed.Load() { // already resolved: a body keeps its slot
		return f.wait()
	}
	rng := tc.rt.ex.nextSeed()
	if !tc.insideTask {
		tc.rt.ex.helpUntilDone(nil, &rng, f.st)
		return f.wait()
	}
	tc.rt.ex.release() // hand the slot back; release never blocks
	tc.rt.ex.helpUntilDone(tc.wkr, &rng, f.st)
	tc.rt.ex.acquire(tc.wkr)
	return f.wait()
}

// WaitAll is a local barrier: it waits for every task submitted through
// this context and raises the floor past all of them. It returns the first
// error among them (in submission order). A body calls it from its own
// goroutine, as Get.
func (tc *TaskCtx) WaitAll() error {
	var own idSet
	err := tc.waitSubmitted(tc.insideTask, &own)
	tc.mu.Lock()
	tc.synced.addSet(own)
	tc.floor.addSet(own)
	tc.mu.Unlock()
	return err
}

// barrierAll is the main context's WaitAll with the floor raised past every
// task in the graph (Runtime.Barrier): waiting on the main program's tasks
// waits on every task, since a task completes only after its children.
func (tc *TaskCtx) barrierAll() error {
	n := tc.rt.g.Len()
	err := tc.waitSubmitted(false, nil)
	tc.mu.Lock()
	tc.synced.addRange(0, n)
	tc.floor.addRange(0, n)
	tc.mu.Unlock()
	return err
}

// waitSubmitted is the one wait loop over a context's tasks — WaitAll,
// Barrier, and the implicit wait when a task body returns. It helps until
// every task submitted so far completed, running the very tasks it waits for
// when nothing else claimed them, and returns the error of the failed one
// with the lowest id: submission order, since ids are assigned at submit.
// With own non-nil it also copies out the ids of the tasks it covered. A body
// still holding its attempt's worker slot (holdsSlot) hands it back once, and
// only if it has to wait.
func (tc *TaskCtx) waitSubmitted(holdsSlot bool, own *idSet) error {
	tc.mu.Lock()
	fs := tc.submitted // compaction copies: this slice never changes
	if own != nil {
		*own = slices.Clone(tc.own)
	}
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
					tc.rt.ex.release() // release never blocks
				}
			}
			tc.rt.ex.helpUntilDone(tc.wkr, &rng, st)
		}
		if st.err != nil && (err == nil || st.id < errID) {
			err, errID = st.err, st.id
		}
	}
	if holdsSlot && rng != 0 {
		tc.rt.ex.acquire(tc.wkr)
	}
	return err
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
