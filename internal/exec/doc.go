// Package exec is the pluggable execution layer under the internal/compss
// runtime: it decides *where* a task body runs. The paper's stack separates
// the programming model (PyCOMPSs) from execution on cluster workers; this
// package is that seam. A nil compss.Config.Backend executes bodies
// in-process (the default, and the fast path); a *Remote ships them to
// worker processes over length-prefixed binary frames on TCP (wire.go,
// codec.go), dislib-style — one coordinator, N workers, serialized
// arguments and results.
//
// # Public surface
//
//   - Register / RegisterN build the process-global registry of named,
//     argument-pure task bodies ("rf_bootstrap", "mat_add", ...): no body
//     writes to an argument. Has / Names / Invoke query and run the
//     registry.
//   - RegisterCodec gives a domain type its row in the one table of wire
//     types: its binary form, written with an Encoder and read with a
//     Decoder, and its resident size, which admits it to the worker future
//     cache. A type with no row is refused at encode, costing its attempt.
//   - Backend is the one contract a fleet implements; a nil one is the
//     registry itself, called through Invoke. ExecuteChain ships a ready
//     task and the tasks only it holds back — a lone attempt is the chain of
//     one — as one request frame on one slot, answered by one frame of
//     Replies; Pull brings outputs left on their workers (*Held) home when
//     read; Forget drops a session's values everywhere; SlotTotal is the
//     capacity a runtime sizes its pool from; Close retires the fleet.
//     Request carries resolved argument values plus optional identity
//     (Session/TaskID/ArgRefs) for the data plane.
//   - Dial / SpawnLoopback construct a *Remote coordinator; Serve,
//     JoinCoordinator and MaybeWorkerMain are the worker side; cmd/worker
//     wraps them in a standalone binary. Config / Flags / Open are the
//     shared backend flag surface of the cmd tools.
//   - *Remote's membership methods (SpawnWorker / KillWorker / Workers /
//     AliveWorkers / SlotTotal): workers join mid-run, and
//     ListenForWorkers admits dial-in registrations authenticated by
//     JoinToken, minted when the listener opens (no token, no listener).
//     SetHook observes the fleet through one Event stream: each response
//     that touched the data plane, each pull, each join and death. The
//     fleet never resizes itself; whoever deploys it adds members.
//   - NextSession mints the per-runtime cache namespace.
//
// # Fleet lifecycle
//
// A member is alive → dead, never backwards, and dead members are never
// reused: a restarted worker re-registers as a brand-new member with a
// fresh id and an empty cache. A member leaves one way: its connection
// fails (a crash, a network drop, KillWorker) or Close retires the fleet;
// its in-flight attempts count Failed and fall into the compss retry
// machinery. The RemoteStats partition Dispatched == Completed + Failed
// holds across every transition.
//
// # The data plane
//
// Values stay where they were made (DESIGN.md, "Who holds a value when").
// Each worker connection owns a byte-bounded LRU future cache keyed by
// ValueRef{Session, Task, Out}; a task's outputs are moved into it, and when
// nobody on the coordinator is known to read them (Request.Hold) the reply
// carries only their Stored reports: the runtime gets a *Held marker per
// output, passes it to consumers as it is, and Pull — one frame a holder,
// answered beside the slots — brings home what is read after all. The
// coordinator tracks residency (advisory, folded from Stored/Evicted reports)
// to place a task on the worker holding the most bytes of its inputs and to
// send each argument in its cheapest form: a ValueRef when the worker holds
// it, a RefValue otherwise. Workers have no links to each other: a value
// another worker holds is pulled to the coordinator if it is not there yet
// and travels on as a RefValue. Resident values are immutable and nothing is
// copied on the way in or out.
// Types without a known size are never cached and ship by value. A value
// stays until the LRU pushes it out or its session is forgotten: once nothing
// can reach the compss runtime that drew the session (compss.New).
//
// Staleness is recovered, never trusted: a worker that cannot resolve a
// reference — evicted, a chain member's input missing, a stale map —
// replies Miss without running the body and the request goes once more with
// values inlined; a held value no worker has any more is ErrLost and the
// runtime runs its producer again. A loss costs round trips, never a wrong
// answer. There is one data plane and no switch on it: what a member gets
// follows from what the coordinator observes. One whose hello says it does
// not cache gets values inline and is offered neither chains nor held
// outputs. RemoteStats counts it: BytesSent/BytesRecv are the coordinator
// links' wire totals (pulls included), RefValueBytes the payload re-shipped
// from one worker to another (a test's oracle that a value crossed), and
// Held/Pulls/PullBytes/Recomputed what stayed, what came home and what was
// rebuilt.
//
// # Concurrency and ownership
//
// The registry is write-at-init, read-only afterwards (Register panics on
// duplicates so collisions surface at program start). Remote is safe for
// concurrent ExecuteChain, Pull and Forget calls: each worker connection is
// multiplexed by frame ID, writes are serialised per connection, and a
// per-worker slot count bounds in-flight frames (a chain's requests run one
// after another on its frame's slot), composing with compss.Config.Workers:
// a runtime fixes its pool at max(Workers, Σ alive slots) when it is
// created; a member lost afterwards lowers what runs at once, and one that
// joins afterwards makes up for it. Arguments reach a body as bit-exact
// decoded copies or as the values resident in the worker's cache, which
// other consumers, retries and pulls share — so registered bodies must be
// argument-pure: no captured state, every argument read-only, results
// freshly allocated. That is
// exactly what makes local and remote execution bit-identical. Every
// decoder that faces a socket bounds a frame before reading it and checks
// every length inside it against the bytes the frame has left before
// allocating, so a corrupt or hostile sender costs its connection, never
// memory or a panic. A worker crash fails the in-flight attempts with an
// error (never the whole process); the compss retry machinery decides what
// happens next.
package exec
