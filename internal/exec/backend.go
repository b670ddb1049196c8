package exec

import (
	"errors"
	"sync"
	"time"
)

// Backend is the one contract between the compss runtime and a fleet: it
// runs Opts.Exec-named task attempts and may keep their outputs where they
// were made. The runtime's retry/fault machinery sits *above* the backend, so
// a backend failure (worker crash, dropped connection, unknown function) is
// just an attempt error — a compss.TaskError, retried or finalised like any
// in-process failure.
type Backend interface {
	// ExecuteChain runs reqs[0] and then, as far as each one's inputs allow,
	// the requests after it, in one round trip on one worker: a lone attempt
	// is the chain of one. An argument an earlier member produces is a bare
	// ValueRef in Args and has no ArgRef. err is the head's lost attempt (no
	// worker, connection failure, ErrLost); without one, replies has an entry
	// per request. worker identifies the executing worker for observability;
	// it is advisory and carries no routing semantics.
	ExecuteChain(reqs []*Request) (replies []Reply, worker string, err error)
	// Pull brings the values of hs — outputs a Request with Hold set left on
	// their worker — home, one round trip a worker however many of hs it
	// holds. ErrLost — from Pull, or from a request that needs a held
	// argument by value — means a value is on no worker any more: its
	// producer has to run again (Redo).
	Pull(hs []*Held) error
	// Forget says nothing can read a value of session any more: the backend
	// drops them all, here and wherever it keeps them.
	Forget(session uint64)
	// SlotTotal is how many attempts the backend runs at once now; the
	// runtime sizes its pool from it once, when it is created.
	SlotTotal() int
	// Close releases the backend's resources (connections, spawned loopback
	// processes). The backend must not be used after Close.
	Close() error
}

// ErrLost reports a held value that every holder lost, evicted or died with.
var ErrLost = errors.New("exec: a held value is gone from every worker")

// Held stands in Vals for an output left on its worker, and passes as an
// argument in its place: the backend turns it into a reference without
// touching the value. Pulled, or filled from the producer's rerun, it keeps
// the value. mu is held across a pull, so readers wait for the one transfer.
type Held struct {
	Ref   ValueRef
	Bytes int64 // accounted size, as in StoredRef

	mu   sync.Mutex
	val  any
	have bool
}

// Value returns the value once it is home.
func (h *Held) Value() (any, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.val, h.have
}

// Fill brings the value home from a rerun of its producer.
func (h *Held) Fill(v any) {
	h.mu.Lock()
	h.val, h.have = v, true
	h.mu.Unlock()
}

// Reply is one chain member's outcome. Err means it failed or never ran (an
// earlier member failed, a reference it named was gone); Body is the time the
// worker spent on this member alone.
type Reply struct {
	Vals []any
	Err  error
	Body time.Duration
}

// Request describes one task attempt handed to a Backend.
//
// Args always carries the fully resolved argument values — a backend can
// execute the task from Args alone. Session/TaskID name the producing task
// and ArgRefs name the producing tasks of the arguments; a data-plane
// backend (Remote) uses them to substitute wire references for values the
// chosen worker already holds, to place the task near its data, and to cache
// its outputs. Zero values make the request anonymous: with only
// Name/NOut/Args set, every argument travels by value, nothing is cached
// and the outputs come home in the reply.
type Request struct {
	Name string
	NOut int
	Args []any

	// Session + TaskID identify this task's outputs for future reference
	// (Session from NextSession, TaskID the runtime's task id). TaskID < 0
	// or Session == 0 means "anonymous": outputs are not cached.
	Session uint64
	TaskID  int
	// ArgRefs names the task-output provenance of arguments that are
	// futures. Arguments not covered by an ArgRef are plain values.
	ArgRefs []ArgRef
	// Hold allows the backend to answer with *Held outputs: nobody is known
	// to read them on this side. Redo marks the rerun of a task whose held
	// outputs were lost (counted in RemoteStats.Recomputed; never held).
	Hold, Redo bool
}

// named reports whether req's outputs have an identity to be cached under.
func (req *Request) named() bool { return req.Session != 0 && req.TaskID >= 0 }

// ArgRef states that one argument (or one element of a []any argument) is
// the Out-th output of task (Session, Task).
type ArgRef struct {
	Arg  int // index into Request.Args
	Elem int // index into Args[Arg].([]any), or -1 for the argument itself
	Ref  ValueRef
}
