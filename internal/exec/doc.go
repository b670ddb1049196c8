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
//   - Register / RegisterN / RegisterInPlace build the process-global
//     registry of named, argument-pure task bodies ("rf_bootstrap",
//     "mat_add", ...); RegisterInPlace additionally declares which
//     arguments the body overwrites (InPlaceArgs reads it back). Has /
//     Names / Fns / Invoke query and run the registry.
//   - RegisterCodec gives a domain type its binary wire form, written with
//     an Encoder and read with a Decoder; RegisterType admits a type
//     without one through the per-value gob fallback.
//   - Backend is the two-method seam (ExecuteTask, Close); Local adapts the
//     registry to it. Request carries resolved argument values plus optional
//     identity (Session/TaskID/ArgRefs) for the data plane. ChainBackend adds
//     ExecuteChain: a ready task and the tasks only it holds back, as one
//     request frame on one slot, answered by one frame of Replies. Holder
//     adds Pull — outputs left on their workers (*Held) come home when read —
//     and Forget, which drops a session's values everywhere.
//   - Dial / SpawnLoopback construct a *Remote coordinator; Serve,
//     JoinCoordinator and MaybeWorkerMain are the worker side; cmd/worker
//     wraps them in a standalone binary. Config / Flags / Open are the
//     shared backend flag surface of the cmd tools.
//   - *Remote's membership methods (Join / SpawnWorker / Drain / Leave /
//     Workers / SlotTotal): workers join, drain and leave mid-run, and
//     ListenForWorkers admits dial-in registrations authenticated by
//     JoinToken. SetFleetHook observes every transition. The fleet never
//     resizes itself; whoever deploys it adds and removes members.
//   - Sizer admits a domain type's values to the worker future cache and
//     Cloner lets them be a declared in-place argument; NextSession mints
//     the per-runtime cache namespace.
//
// # Fleet lifecycle
//
// A member is alive → draining → dead, never backwards, and dead members
// are never reused: a restarted worker re-registers as a brand-new member
// with a fresh id and an empty cache. Drain retires gracefully (no new
// placements, in-flight attempts finish and count Completed); Leave and
// connection failures retire immediately (in-flight attempts count Failed
// and fall into the compss retry machinery). The RemoteStats partition
// Dispatched == Completed + Failed holds across every transition.
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
// it, a PeerRef — directions to a holder, pulled over a cached, multiplexed
// peer link — when another worker does, a RefValue otherwise. Resident values
// are immutable and nothing is copied on the way in or out; the one clone
// goes to a body that declared it overwrites an argument (RegisterInPlace).
// Types without a known size are never cached and ship by value. A value
// stays until the LRU pushes it out or its session is forgotten: once nothing
// can reach the compss runtime that drew the session (compss.New).
//
// Staleness is recovered, never trusted: a worker that cannot resolve a
// reference — evicted, a peer holder gone, a chain member's input missing —
// replies Miss without running the body and the request goes once more with
// values inlined; a held value no worker has any more is ErrLost and the
// runtime runs its producer again. A loss costs round trips, never a wrong
// answer. There is one data plane and no switch on it: what a member gets
// follows from what the coordinator observes. One whose hello says it does
// not cache gets values inline and is offered neither chains nor held
// outputs; one with no peer listener, and a value whose holder has none or is
// draining or dead, gets RefValues routed through the coordinator.
// RemoteStats splits the accounting exactly: BytesSent/BytesRecv count only
// the coordinator links (pulls included), PeerBytesSent/PeerBytesRecv only the
// worker-to-worker links, RefValueBytes/PeerValueBytes partition inter-task
// payload by link (a test's oracle for which one carried a value),
// Held/Pulls/PullBytes/Recomputed count what stayed, what came home and what
// was rebuilt.
//
// # Concurrency and ownership
//
// The registry is write-at-init, read-only afterwards (Register panics on
// duplicates so collisions surface at program start). Remote is safe for
// concurrent ExecuteTask / ExecuteChain calls: each worker connection is
// multiplexed by frame ID, writes are serialised per connection, and a
// per-worker slot count bounds in-flight frames (a chain's requests run one
// after another on its frame's slot), composing with compss.Config.Workers:
// a runtime fixes its pool at max(Workers, Σ alive slots) when it is
// created; a member lost afterwards lowers what runs at once, and one that
// joins afterwards makes up for it. Arguments reach a body as bit-exact
// decoded copies or as the values resident in the
// worker's cache, which other consumers, retries and peer fetches share —
// so registered bodies must be argument-pure: no captured state, arguments
// read-only unless declared in-place, results freshly allocated. That is
// exactly what makes local and remote execution bit-identical. Every
// decoder that faces a socket bounds a frame before reading it and checks
// every length inside it against the bytes the frame has left before
// allocating, so a corrupt or hostile peer costs its connection, never
// memory or a panic. A worker crash fails the in-flight attempts with an
// error (never the whole process); the compss retry machinery decides what
// happens next.
package exec
