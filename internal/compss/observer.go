// The Observer API: a structured event stream over task lifecycles.
//
// Every submitted task emits a fixed, per-task-causally-ordered sequence of
// events as it moves through the runtime. Sinks implement Observer and are
// attached via Config.Observers; the built-in StatsObserver (stats.go) and
// the Chrome-trace Collector (internal/trace) are both plain Observers, so
// profiling and tracing share one instrumentation point.
//
// # Event sequences
//
// A task that completes normally emits
//
//	Submit < DepsReady < Start(0) < End(0)
//
// and a task that fails and retries interleaves failures:
//
//	Submit < DepsReady < Start(0) < Failure(0) < Retry(1) < Start(1) < ...
//
// terminated by exactly one of End(k) (success) or Failure(k, Final=true)
// (attempts exhausted). A task whose dependency failed — so its body never
// ran — emits Submit < Failure(Attempt: -1, Mode: "deps", Final: true) only.
//
// # Ordering and concurrency
//
// Events of one task are causally ordered: each Observe call returns before
// the next one for the same task is made, and the sequences above are guaranteed.
// Events of *different* tasks arrive concurrently from the worker goroutines
// executing them, so observers must be safe for concurrent use. Observe runs
// inline on the runtime's hot path: a slow observer slows the workflow down
// (keep it O(1); buffer and post-process, as internal/trace does).
//
// # Overhead contract
//
// A runtime with no observers pays one atomic load per would-be event and
// never constructs an Event value — the zero-observer submit path is
// benchmarked against the pre-Observer runtime (BenchmarkSubmitNoObserver
// vs BenchmarkSubmitTraced at the repository root) and must not regress.
package compss

import "time"

// EventKind discriminates lifecycle events.
type EventKind int

const (
	// EventSubmit fires when the task is registered (its graph node, if any,
	// allocated), before its dependency resolution starts. Attempt is -1.
	EventSubmit EventKind = iota
	// EventDepsReady fires when every dependency resolved successfully and
	// the task is about to queue for a worker slot. Attempt is -1.
	EventDepsReady
	// EventStart fires when an attempt's body begins executing (its worker
	// slot is acquired).
	EventStart
	// EventEnd fires once, when the final attempt's body returned
	// successfully; its Time is the instant the body returned (the worker
	// slot was released), so End.Time − Start.Time is body execution.
	EventEnd
	// EventRetry fires when a failed attempt re-queues; Attempt is the
	// *upcoming* attempt index (the one a later Start will carry).
	EventRetry
	// EventFailure fires when an attempt fails (Mode "error" or "panic"), or
	// — with Attempt -1 and Mode "deps" — when a dependency failure prevents
	// the task from ever running. Final marks the task's terminal failure: no
	// retry follows.
	EventFailure
)

// String returns the event kind's wire name (used by trace exporters).
func (k EventKind) String() string {
	switch k {
	case EventSubmit:
		return "submit"
	case EventDepsReady:
		return "deps_ready"
	case EventStart:
		return "start"
	case EventEnd:
		return "end"
	case EventRetry:
		return "retry"
	case EventFailure:
		return "failure"
	default:
		return "unknown"
	}
}

// Event is one immutable lifecycle record. Values are passed by copy and
// never mutated after emission; observers may retain them.
type Event struct {
	// Kind is the lifecycle transition.
	Kind EventKind
	// Task is the graph ID of the task; a detached task (Runtime.Detached),
	// which has none, carries its negative id.
	Task int
	// Name is the task's kind label (Opts.Name).
	Name string
	// Attempt is the 0-based attempt index the event belongs to, -1 for
	// events that precede any attempt (Submit, DepsReady, dep failures).
	// For Retry it is the upcoming attempt's index.
	Attempt int
	// Time is the emission instant. It carries Go's monotonic clock
	// reading, so durations between events of one run are exact even if
	// the wall clock steps.
	Time time.Time
	// Err is the attempt's failure (Failure events only).
	Err error
	// Mode is the failure mode: "error", "panic", or "deps" for a dependency
	// failure (Failure events only).
	Mode string
	// Final marks a Failure event as the task's terminal outcome: the retry
	// budget is spent.
	Final bool
	// Worker identifies the execution-backend worker that ran the attempt
	// (End and Failure events of Opts.Exec tasks dispatched through a
	// remote Backend); "" for in-process execution. Trace exporters use it
	// to put remote attempts on per-worker lanes.
	Worker string
	// Stolen marks Start events of tasks the work-stealing dispatcher
	// migrated off the deque they were enqueued on: another worker ran out
	// of local work and took this task from its origin worker (or a parked
	// submitter's deque). Always false on other event kinds. Queue-time
	// attribution is unaffected — DepsReady→Start still measures the full
	// ready-to-running gap; the steal happens at dispatch, so the time was
	// spent waiting on the origin deque.
	Stolen bool
}

// Observer receives lifecycle events: one Observe call per event, which
// the sink tells apart by Event.Kind. Implementations must be safe for
// concurrent use (events of different tasks arrive from different
// goroutines); events of a single task are delivered in causal order.
type Observer interface {
	Observe(Event)
}

// emit dispatches one event at time.Now(); see emitAt.
func (rt *Runtime) emit(kind EventKind, st *taskState, attempt int, err error, mode string, final bool) {
	if rt.obs.Load() == nil {
		return // zero-observer fast path: no Event is built
	}
	rt.emitAt(kind, st, attempt, time.Now(), err, mode, final, "")
}

// emitAt dispatches one event with an explicit timestamp to every attached
// observer, in attachment order. Callers use it when the event's instant was
// captured before bookkeeping that should not be charged to it (e.g. End is
// stamped when the body returned, not after the nested-children wait).
// worker labels attempts a remote backend executed ("" in-process).
func (rt *Runtime) emitAt(kind EventKind, st *taskState, attempt int, at time.Time, err error, mode string, final bool, worker string) {
	obs := rt.obs.Load()
	if obs == nil {
		return
	}
	ev := Event{
		Kind: kind, Task: st.id, Name: st.name, Attempt: attempt,
		Time: at, Err: err, Mode: mode, Final: final, Worker: worker,
		// st.stolen is written once, by the executing goroutine before it
		// emits Start; the short-circuit keeps every other event kind —
		// Submit and DepsReady are emitted by other goroutines — from
		// reading the field at all.
		Stolen: kind == EventStart && st.stolen,
	}
	for _, o := range *obs {
		o.Observe(ev)
	}
}
