// Package compss is a task-based workflow runtime in the style of PyCOMPSs,
// the programming model the paper builds on: plain functions become
// asynchronous tasks, data dependencies between tasks are detected
// automatically from their arguments, and the runtime executes the resulting
// DAG in parallel.
//
// # Programming model
//
// A task is submitted with Submit (from the main program) or TaskCtx.Submit
// (from inside another task — "nesting", the PyCOMPSs feature the paper uses
// to overlap the CNN folds in Figure 10). Any argument that is a *Future, or
// a []*Future, marks a dependency on the producing task; the runtime resolves
// it to the produced value before the task body runs:
//
//	a := rt.Submit(compss.Opts{Name: "load", Cost: 1}, loadFn)
//	b := rt.Submit(compss.Opts{Name: "fit", Cost: 5}, fitFn, a) // waits for a
//	model, err := rt.Get(b)                                     // synchronises
//
// Get is a synchronisation: besides blocking the caller, it raises the
// calling context's *sync floor* — tasks submitted afterwards cannot, in
// virtual time, start before the synchronised value reached the master.
// This reproduces the behaviour the paper describes for Figure 9, where each
// epoch's weight synchronisation "stops the generation of tasks". Nested
// contexts have their own local floor, so a Get inside a nested task does
// not delay sibling tasks — the Figure 10 improvement.
//
// # Execution and time
//
// Tasks really run, on a goroutine pool of Config.Workers slots, so model
// outputs are genuine. Each attempt runs inline, to completion, on the
// goroutine that dispatched it — a pool carrier or a waiter that helps (see
// Scheduling): no attempt is bounded in wall time or preempted. Virtual time
// is handled elsewhere: every submission is recorded in a graph.Graph (with
// its analytic cost and resource demand) that internal/cluster replays
// against a virtual cluster description.
//
// Where a body runs is pluggable: SubmitExec / SubmitExecN submit *named*
// registered functions (internal/exec) instead of closures, and
// Config.Backend routes those attempts either in-process (nil backend) or
// to out-of-process workers (exec.Remote). Closure tasks always run
// in-process. Over a backend that takes chains (exec.ChainBackend), a ready
// task's first attempt carries along every submitted task only it still holds
// back — up to 16, one round trip for a whole forest tree — and anything
// that does not come back with values runs the ordinary way (chain.go); the
// event sequences and failure policies below are unchanged by it. Over a
// backend that holds results (exec.Holder) an output nobody is known to read
// here stays on its worker: Get, GetAll and closure bodies pull what they
// read — a round trip a worker — and a value lost with its holder is rebuilt
// by running its producer again (held.go; a Retry after the End, no more).
//
// # Failure, observation
//
// Attempts that error or panic become TaskErrors and feed the retry /
// degraded-mode machinery selected by Config.OnTaskFailure;
// FaultPlan injects failures deterministically for tests. Config.Observers
// receive the full ordered event stream (Submit ≤ DepsReady ≤ Start ≤
// End/Failure/Retry/Degrade) that internal/trace renders as Chrome traces.
//
// # Concurrency and ownership
//
// Runtime methods are safe for concurrent use from the main program and
// from task bodies. A Future's value is owned by the runtime; bodies
// receive resolved arguments they must treat as shared and immutable unless
// the submit site guarantees exclusive ownership (see dsarray.ReduceInPlace
// for the one sanctioned exception). Observer callbacks run on runtime
// goroutines and must not block.
//
// # Scheduling
//
// Dispatch is work-stealing (executor.go, DESIGN.md "Scheduler"): each
// worker slot owns a deque of ready tasks, a body's nested submissions push
// onto its own worker's deque without a runtime-global lock, external
// submissions round-robin over the live workers, and idle workers steal.
// Three consequences are part of the package contract:
//
//   - Locality: a completing task wakes its newly-ready dependents onto the
//     completing worker's deque, so a future tends to be consumed where it
//     was produced. Tasks must not rely on this — any attempt can be stolen
//     by any worker (Event.Stolen reports when one was), so bodies must be
//     goroutine-agnostic.
//   - No execution-order guarantee exists between independent ready tasks:
//     the owner runs its deque LIFO, thieves take FIFO, so sibling tasks run
//     in no particular order. Only dependency order is guaranteed.
//   - A task whose dependency failed is declared dep-failed once all of its
//     dependencies completed, not at the instant the first one failed; its
//     terminal event sequence is unchanged, but the failure is observed
//     after the last dependency settles.
//
// Waits help instead of blocking: Get, WaitAll and Barrier execute ready
// tasks inline while they wait (within the Config.Workers slot bound), so a
// parent blocked on its child makes progress even with Workers: 1. A body
// waits from its own goroutine, the one the runtime called it on. Barrier
// is the main context's WaitAll: a task completes only after its children,
// so the runtime keeps no list of every task it ran.
package compss
