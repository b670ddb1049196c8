package exec

import (
	"cmp"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// RemoteConfig configures Dial.
type RemoteConfig struct {
	// Peers are the worker addresses (host:port) to dial.
	Peers []string
	// DialTimeout bounds each dial + handshake. Default 5s.
	DialTimeout time.Duration
}

// workerState is the lifecycle of one fleet member. Transitions only move
// forward: alive → draining → dead (graceful Drain) or alive/draining →
// dead (connection failure, Leave, Close). A dead worker never comes back —
// a restarted process re-registers as a brand-new member with a fresh id.
type workerState int

const (
	wsAlive    workerState = iota // accepting placements
	wsDraining                    // finishing in-flight work, no new placements
	wsDead                        // retired; connection closed
)

func (s workerState) String() string {
	switch s {
	case wsAlive:
		return "alive"
	case wsDraining:
		return "draining"
	default:
		return "dead"
	}
}

// Remote is the coordinator side of the out-of-process backend: it owns a
// dynamic fleet of workers — one multiplexed framed TCP connection each
// (wire.go) — and dispatches ExecuteTask calls onto them.
//
// # Fleet membership
//
// The worker set is fully dynamic. Members are admitted by Dial /
// SpawnLoopback at construction, by Join (coordinator dials a worker
// mid-run), by SpawnWorker (one more loopback child), or by dialing in to
// the coordinator's listen address (ListenForWorkers) with the fleet's
// JoinToken — the re-admission path for restarted workers. Every admission
// mints a fresh id ("w0", "w1", ... never reused), so a worker that crashed
// and redialed is a new member with an empty cache: its stale residency died
// with the old connection and cannot alias the new one. Drain retires a
// member gracefully — no new placements, in-flight attempts finish (their
// piggybacked cache reports still apply), then the connection closes —
// while Leave and connection failure retire it immediately, failing
// in-flight attempts into the runtime's retry machinery. SetFleetHook
// observes every membership transition (the Chrome trace renders them as
// instants).
//
// # Slot accounting
//
// Every worker advertises a slot count in its hello (how many task bodies it
// runs concurrently). ExecuteChain — and ExecuteTask, its chain of one — picks
// an alive worker with a free slot and blocks while all are saturated, so a
// worker never has more frames in flight than slots; a chain's requests run
// one after another on their frame's slot, and a pull takes none. The
// runtime's own pool bounds attempts in flight at all: effective parallelism
// is min(runtime pool, Σ alive slots), the pool sized once when the runtime
// is created.
//
// # Placement and the data plane
//
// Among the free-slot workers, placement prefers the one holding the most
// bytes of the request's future-valued arguments (ties, and no data: least
// loaded). Arguments the chosen worker holds travel as ValueRefs, the rest as
// RefValues seeding its cache: every value that moves between workers goes
// through the coordinator.
// Outputs nobody is known to read here stay on their worker (Request.Hold):
// the reply is a *Held per output, Pull brings values home, and ErrLost says
// a value is on no worker any more — the runtime reruns its producer. The
// residency map behind all this is advisory, folded from the Stored/Evicted
// reports on responses; a stale entry costs a round trip, never an answer: a
// worker that cannot resolve a reference replies Miss and the request goes
// again with every value inlined (wire.go).
//
// # Failure
//
// A connection error (crash, network drop, a frame that does not decode)
// marks the worker dead, fails its in-flight requests, drops its residency
// (the cache died with it) and excludes it from dispatch. Remote never fails
// a *task* — it fails attempts, and the runtime's policy decides the rest.
//
// # Stats invariant
//
// Every request written to a connection counts Dispatched once and then
// exactly one of Completed (a response came back, error or not) or Failed
// (the connection died first) — the members of a chain each count, together,
// and a pull or a forget counts in neither. At quiescence Dispatched == Completed +
// Failed, across every membership change; Frames counts the round trips.
type Remote struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers []*workerConn
	spawned []*workerConn // loopback children in spawn order (KillWorker index)
	closed  bool

	nextWID     int    // fresh member ids: w<nextWID>, monotone, never reused
	token       string // fleet join credential (hello.Token on dial-in)
	listener    net.Listener
	spawn       *spawnConfig // how to re-exec one more loopback worker; nil for dialed fleets
	dialTimeout time.Duration

	peakAlive int
	joined    uint64 // admissions across the fleet's lifetime
	left      uint64 // retirements (drained, dead, left) across the lifetime

	nextID                        atomic.Uint64
	dispatched, completed, failed atomic.Uint64
	frames                        atomic.Uint64
	refHits, refMisses            atomic.Uint64
	missRetries                   atomic.Uint64
	held, pulls, recomputed       atomic.Uint64
	pullBytes                     atomic.Int64
	refValueBytes                 atomic.Int64 // see RemoteStats.RefValueBytes

	cacheHook atomic.Pointer[func(CacheSample)]
	fleetHook atomic.Pointer[func(FleetEvent)]
}

// newRemote builds an empty fleet; members are admitted afterwards.
func newRemote(dialTimeout time.Duration) *Remote {
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	r := &Remote{
		dialTimeout: dialTimeout,
		token:       newJoinToken(),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// newJoinToken mints the fleet join credential.
func newJoinToken() string {
	var b [12]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("tok-%d-%d", os.Getpid(), time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// workerConn is one fleet member. Scheduling state (state, inflight,
// resident, proc) is guarded by the owning Remote's mutex; the pending map
// has its own lock because the reader goroutine touches it without the
// scheduler lock.
type workerConn struct {
	id    string
	addr  string
	pid   int
	slots int
	// caches is the hello's word that the member has a future cache; one
	// without is offered neither chains nor held outputs.
	caches bool

	link *link

	pendMu  sync.Mutex
	pending map[uint64]call

	state    workerState
	inflight int
	deadErr  error
	joinTok  string // hello.Token presented on this connection (dial-in auth)

	// proc is the loopback child process behind this connection, nil for
	// dialed workers. Tombstoned (set nil) under r.mu before any kill/reap so
	// KillWorker, Close and drain-completion can never reap twice.
	proc *os.Process

	done atomic.Uint64 // responses received over this connection's lifetime

	// resident mirrors the worker's future cache (ref → bytes), maintained
	// from Stored/Evicted response reports. Advisory: used only to score
	// placement and choose ref-vs-value wire forms; the Miss protocol
	// corrects any staleness.
	resident      map[ValueRef]int64
	residentBytes int64
}

// call is one frame awaiting its response; n is how many requests it carries
// (what it added to Dispatched, and adds to Failed if it is lost; 0 for a pull).
type call struct {
	ch chan response
	n  uint64
}

// WorkerInfo is a point-in-time description of one fleet member.
type WorkerInfo struct {
	ID       string
	Addr     string
	Pid      int
	Slots    int
	State    string // "alive", "draining" or "dead"
	Inflight int
	// Done counts responses this member returned across its lifetime.
	Done uint64
	// ResidentBytes is the coordinator's view of the worker's future-cache
	// occupancy (advisory; see Remote's data-plane notes).
	ResidentBytes int64
}

// RemoteStats counts dispatch outcomes across the backend's lifetime.
type RemoteStats struct {
	// Dispatched counts requests written to a worker connection (including
	// miss re-sends).
	Dispatched uint64
	// Completed counts responses received, including worker-side errors and
	// Miss replies.
	Completed uint64
	// Failed counts dispatches lost to connection failure (the attempt saw
	// an error and the runtime decides whether to retry). Dispatched ==
	// Completed + Failed + in-flight, always.
	Failed uint64
	// Frames counts request frames written — round trips; a chain is one
	// frame, so Dispatched/Frames is the mean chain length.
	Frames uint64

	// RefHits / RefMisses count worker-side reference resolutions; a high
	// miss share means residency is being evicted or killed faster than it
	// is reused.
	RefHits   uint64
	RefMisses uint64
	// MissRetries counts requests re-sent with values inlined after a Miss
	// reply.
	MissRetries uint64
	// Held counts outputs left on the worker that produced them instead of
	// coming home in the reply; Pulls counts pull frames — round trips that
	// brought some home after all — and PullBytes their payload (accounted
	// sizes, as ResidentBytes). Recomputed counts producers run again because
	// no worker had their held output any more.
	Held       uint64
	Pulls      uint64
	PullBytes  uint64
	Recomputed uint64
	// BytesSent / BytesRecv are exact wire totals of the coordinator links —
	// every coordinator↔worker connection's requests, handshakes and
	// responses, which is all the fleet's task traffic.
	BytesSent uint64
	BytesRecv uint64

	// The four Peer* counters are inert: workers have no links to each other.
	// They stay only because bench/harness.go, frozen while the code it
	// measures changes, reads them; a benchmark-only change drops them from
	// both sides.
	PeerFetches   uint64 // always 0: no worker fetches from another
	PeerFallbacks uint64 // always 0: no worker fetches from another
	PeerBytesSent uint64 // always 0: there are no worker-to-worker links
	PeerBytesRecv uint64 // always 0: there are no worker-to-worker links
	// RefValueBytes is payload (sizeOfValue units) the coordinator re-shipped
	// that another alive worker held: the value volume moved between workers.
	// No benchmark row reads it; it is how a test tells that a value crossed.
	RefValueBytes uint64

	// Joined / Left count fleet admissions and retirements across the
	// lifetime; PeakWorkers is the largest alive-member count ever observed.
	Joined      uint64
	Left        uint64
	PeakWorkers int
}

// CacheSample is one data-plane observation delivered to the hook installed
// with SetCacheHook: the reference-resolution outcome and cache occupancy
// reported by one worker response.
type CacheSample struct {
	Worker     string // worker id (w0, w1, ...)
	Task       int    // runtime task id, -1 for anonymous requests
	Hits       int    // references resolved from the worker's cache
	Misses     int    // references the worker could not resolve
	CacheBytes int64  // the worker's cache occupancy after the request
	// Pulled counts the held values a pull brought home from this worker (a
	// sample of its own, Task -1); Redo marks the rerun of a lost producer.
	Pulled int
	Redo   bool
}

// SetCacheHook installs fn to receive one CacheSample per worker response
// that touched the data plane (nil uninstalls). The hook runs on dispatch
// goroutines and must be cheap and non-blocking.
func (r *Remote) SetCacheHook(fn func(CacheSample)) {
	if fn == nil {
		r.cacheHook.Store(nil)
		return
	}
	r.cacheHook.Store(&fn)
}

// Dial connects to every worker address, performs the handshake, and returns
// the coordinator. It fails if any worker is unreachable or speaks the wrong
// protocol — a partially-connected start would silently shrink the cluster.
// The fleet stays open afterwards: Join, ListenForWorkers and Drain/Leave
// change membership mid-run.
func Dial(cfg RemoteConfig) (*Remote, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("exec: Dial needs at least one worker address")
	}
	r := newRemote(cfg.DialTimeout)
	for _, addr := range cfg.Peers {
		if _, err := r.Join(addr); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// Join dials one worker and admits it into the fleet mid-run with a fresh
// id, which it returns. The new member is placed on as soon as it is
// admitted; a runtime created afterwards sizes its pool from the new slot
// total.
func (r *Remote) Join(addr string) (string, error) {
	r.mu.Lock()
	timeout := r.dialTimeout
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return "", fmt.Errorf("exec: backend is closed")
	}
	w, err := dialWorker(addr, timeout)
	if err != nil {
		return "", err
	}
	return r.admit(w, nil)
}

// admit registers a handshaken connection as a fleet member: it assigns the
// next fresh id, starts the reader, and publishes the membership change.
func (r *Remote) admit(w *workerConn, proc *os.Process) (string, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		w.link.conn.Close()
		if proc != nil {
			_ = proc.Kill()
			_, _ = proc.Wait()
		}
		return "", fmt.Errorf("exec: backend is closed")
	}
	w.id = fmt.Sprintf("w%d", r.nextWID)
	r.nextWID++
	w.state = wsAlive
	w.proc = proc
	r.workers = append(r.workers, w)
	if proc != nil {
		r.spawned = append(r.spawned, w)
	}
	r.joined++
	if n := r.aliveLocked(); n > r.peakAlive {
		r.peakAlive = n
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	go r.readLoop(w)
	r.membershipChanged(FleetJoin, w.id, "")
	return w.id, nil
}

// aliveLocked counts alive members; caller holds r.mu.
func (r *Remote) aliveLocked() int {
	n := 0
	for _, w := range r.workers {
		if w.state == wsAlive {
			n++
		}
	}
	return n
}

// slotTotalLocked sums the slots of alive members; caller holds r.mu.
func (r *Remote) slotTotalLocked() int {
	n := 0
	for _, w := range r.workers {
		if w.state == wsAlive {
			n += w.slots
		}
	}
	return n
}

func dialWorker(addr string, timeout time.Duration) (*workerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("exec: dialing worker at %s: %w", addr, err)
	}
	w, err := handshake(conn, addr, timeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return w, nil
}

// handshake reads the worker's hello off a fresh connection and builds the
// (not yet admitted) member around the link that read it, so readLoop
// continues on the same buffered reader. The caller owns the connection on
// error.
func handshake(conn net.Conn, addr string, timeout time.Duration) (*workerConn, error) {
	l := newLink(conn)
	var h hello
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	if err := l.recv(&h); err != nil {
		return nil, fmt.Errorf("exec: handshake with worker at %s: %w", addr, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	if h.Proto != protoVersion {
		return nil, fmt.Errorf("exec: worker at %s speaks protocol %d, want %d", addr, h.Proto, protoVersion)
	}
	slots := h.Slots
	if slots < 1 {
		slots = 1
	}
	return &workerConn{
		addr: addr, pid: h.Pid, slots: slots, caches: h.Caches,
		link:     l,
		pending:  map[uint64]call{},
		resident: map[ValueRef]int64{},
		joinTok:  h.Token,
	}, nil
}

// ListenForWorkers opens the coordinator's fleet listen address: workers
// that dial it and present the fleet's JoinToken in their hello are admitted
// as new members — the path a restarted worker (or a brand-new one absorbing
// load) takes to register mid-run. Returns the bound address (addr may use
// port 0). A connection with a wrong or missing token is dropped before it
// can receive work.
func (r *Remote) ListenForWorkers(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("exec: fleet listen %s: %w", addr, err)
	}
	r.mu.Lock()
	if r.closed || r.listener != nil {
		already := r.listener != nil
		r.mu.Unlock()
		l.Close()
		if already {
			return "", fmt.Errorf("exec: fleet listener already open")
		}
		return "", fmt.Errorf("exec: backend is closed")
	}
	r.listener = l
	r.mu.Unlock()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed (Close)
			}
			go r.admitDialIn(conn)
		}
	}()
	return l.Addr().String(), nil
}

// admitDialIn handshakes one inbound registration and admits it when the
// token matches.
func (r *Remote) admitDialIn(conn net.Conn) {
	addr := conn.RemoteAddr().String()
	w, err := handshake(conn, addr, r.dialTimeout)
	if err != nil {
		conn.Close()
		return
	}
	if w.joinTok != r.token {
		conn.Close()
		return
	}
	_, _ = r.admit(w, nil)
}

// ListenAddr returns the fleet listen address, or "" when ListenForWorkers
// was not called.
func (r *Remote) ListenAddr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.listener == nil {
		return ""
	}
	return r.listener.Addr().String()
}

// JoinToken returns the credential a dial-in worker must present (cmd/worker
// -join -token).
func (r *Remote) JoinToken() string { return r.token }

// readLoop drains one worker's responses. It owns the link's read side; any
// error means the stream is unusable (crash, kill, network drop, a frame out
// of bounds or one that does not decode — or the coordinator closed it
// after a drain) and the worker is retired.
func (r *Remote) readLoop(w *workerConn) {
	for {
		var resp response
		if err := w.link.recv(&resp); err != nil {
			r.failWorker(w, fmt.Errorf("connection lost: %w", err), FleetDead)
			return
		}
		w.done.Add(1)
		w.pendMu.Lock()
		c, ok := w.pending[resp.ID]
		delete(w.pending, resp.ID)
		w.pendMu.Unlock()
		if ok {
			c.ch <- resp
		}
	}
}

// failWorker retires w immediately: no further dispatches land on it, its
// residency is dropped (the cache died with the connection), and every
// pending request fails with a connection error (which the runtime treats
// as an attempt failure and may retry elsewhere). Each drained frame counts
// its requests Failed here and is handed a connFailure response so the
// receive path in executeOn does not also count them Completed — the counters stay a
// partition. kind labels the fleet event ("" emits none: Close retires the
// whole fleet without narrating it).
func (r *Remote) failWorker(w *workerConn, err error, kind string) {
	r.mu.Lock()
	if w.state == wsDead {
		r.mu.Unlock()
		return
	}
	w.state = wsDead
	w.deadErr = err
	w.resident = map[ValueRef]int64{}
	w.residentBytes = 0
	r.left++
	r.cond.Broadcast()
	r.mu.Unlock()
	w.link.conn.Close()
	r.failPending(w, err)
	if kind != "" {
		r.membershipChanged(kind, w.id, err.Error())
	}
}

// failPending answers every frame still waiting on w's closed connection with
// a connFailure and counts its requests Failed.
func (r *Remote) failPending(w *workerConn, err error) {
	w.pendMu.Lock()
	drained := w.pending
	w.pending = map[uint64]call{}
	w.pendMu.Unlock()
	for _, c := range drained {
		r.failed.Add(c.n)
		c.ch <- response{Err: fmt.Sprintf("worker %s (%s): %v", w.id, w.addr, err), connFailure: true}
	}
}

// Drain retires worker id gracefully: it stops receiving placements
// immediately, its in-flight attempts run to completion (their responses —
// and the piggybacked cache reports — still come back and count Completed),
// and once the last one finishes the connection closes and a loopback child
// is reaped; nothing bounds how long those attempts run. Drain returns as
// soon as the worker is marked; observe completion via Workers (state
// "dead") or the fleet hook's "drained" event.
func (r *Remote) Drain(id string) error {
	r.mu.Lock()
	w := r.findLocked(id)
	if w == nil {
		r.mu.Unlock()
		return fmt.Errorf("exec: no worker %q", id)
	}
	if st := w.state; st != wsAlive {
		r.mu.Unlock()
		return fmt.Errorf("exec: worker %s is %s, cannot drain", id, st)
	}
	w.state = wsDraining
	idle := w.inflight == 0
	r.mu.Unlock()
	r.membershipChanged(FleetDrain, id, "")
	if idle {
		r.finishDrain(w)
	}
	return nil
}

// finishDrain completes a drain once the worker is idle: close the
// connection (the readLoop's decode error finds the worker already dead and
// is a no-op) and reap a loopback child.
func (r *Remote) finishDrain(w *workerConn) {
	r.mu.Lock()
	if w.state != wsDraining || w.inflight != 0 {
		r.mu.Unlock()
		return
	}
	w.state = wsDead
	w.deadErr = fmt.Errorf("drained")
	w.resident = map[ValueRef]int64{}
	w.residentBytes = 0
	proc := w.proc
	w.proc = nil
	r.left++
	r.cond.Broadcast()
	r.mu.Unlock()
	w.link.conn.Close()
	r.failPending(w, w.deadErr) // no request is in flight, but a pull may be
	if proc != nil {
		_ = proc.Kill()
		_, _ = proc.Wait()
	}
	r.membershipChanged(FleetDrained, w.id, "")
}

// Leave removes worker id immediately: in-flight attempts fail into the
// retry machinery (exactly as a crash would) and a loopback child is killed
// and reaped. Use Drain for the graceful path.
func (r *Remote) Leave(id string) error {
	r.mu.Lock()
	w := r.findLocked(id)
	if w == nil {
		r.mu.Unlock()
		return fmt.Errorf("exec: no worker %q", id)
	}
	if w.state == wsDead {
		r.mu.Unlock()
		return fmt.Errorf("exec: worker %s is already dead", id)
	}
	r.mu.Unlock()
	r.failWorker(w, fmt.Errorf("removed from the fleet"), FleetLeave)
	r.mu.Lock()
	proc := w.proc
	w.proc = nil
	r.mu.Unlock()
	if proc != nil {
		_ = proc.Kill()
		_, _ = proc.Wait()
	}
	return nil
}

// findLocked returns the member with the given id; caller holds r.mu.
func (r *Remote) findLocked(id string) *workerConn {
	for _, w := range r.workers {
		if w.id == id {
			return w
		}
	}
	return nil
}

// acquire blocks until an alive worker has a free slot and reserves one.
// Placement is locality-aware: among free-slot workers it picks the one
// holding the most resident bytes of refs (the request's future-valued
// inputs), breaking ties — and the nothing-resident case — by least load.
// Saturated workers are never waited on for locality: a busy data-holder
// must not stall dispatch when an idle worker can run the task from shipped
// values. Draining members are skipped for placement but still waited on —
// their retirement (or a join) will move things along. It errors once no
// worker is alive or draining.
func (r *Remote) acquire(refs []ValueRef) (*workerConn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return nil, fmt.Errorf("exec: backend is closed")
		}
		var best *workerConn
		var bestScore int64 = -1
		anyOpen := false
		for _, w := range r.workers {
			if w.state == wsDead {
				continue
			}
			anyOpen = true
			if w.state != wsAlive || w.inflight >= w.slots {
				continue
			}
			var score int64
			for _, ref := range refs {
				score += w.resident[ref]
			}
			if best == nil || score > bestScore ||
				(score == bestScore && w.inflight < best.inflight) {
				best, bestScore = w, score
			}
		}
		if !anyOpen {
			return nil, fmt.Errorf("exec: no alive workers")
		}
		if best != nil {
			best.inflight++
			return best, nil
		}
		r.cond.Wait()
	}
}

func (r *Remote) release(w *workerConn) {
	r.mu.Lock()
	w.inflight--
	finish := w.state == wsDraining && w.inflight == 0
	r.cond.Broadcast()
	r.mu.Unlock()
	if finish {
		r.finishDrain(w)
	}
}

// Execute ships one anonymous attempt (no task identity, so no caching and
// no locality), for direct callers and tests.
func (r *Remote) Execute(name string, nOut int, args []any) ([]any, string, error) {
	return r.ExecuteTask(&Request{Name: name, NOut: nOut, Args: args, TaskID: -1})
}

// ExecuteTask ships one attempt to a worker: the chain of one request.
func (r *Remote) ExecuteTask(req *Request) ([]any, string, error) {
	replies, worker, err := r.ExecuteChain([]*Request{req})
	if err != nil {
		return nil, worker, err
	}
	return replies[0].Vals, worker, replies[0].Err
}

// ExecuteChain ships reqs as one frame to one worker: choose a worker near
// the members' data, reserve a slot, send the requests (references for
// resident arguments, values seeding the cache for the rest), await the one
// multiplexed response, and re-send the head alone with values inlined if the
// worker could not resolve one of its references (no follower ran then: each
// depends on the head). The returned worker id labels the attempts in traces.
// ErrLost: a held argument had to travel by value and no worker has it.
func (r *Remote) ExecuteChain(reqs []*Request) ([]Reply, string, error) {
	head := reqs[0]
	var refs []ValueRef
	for _, req := range reqs {
		for _, ar := range req.ArgRefs {
			refs = append(refs, ar.Ref)
		}
	}
	w, err := r.acquire(refs)
	if err != nil {
		return nil, "", err
	}
	defer r.release(w)
	replies := make([]Reply, len(reqs))
	if !w.caches {
		// Followers name outputs this member will not keep: not offered.
		for i := range replies[1:] {
			replies[i+1].Err = fmt.Errorf("exec: no chains on %s, it does not cache", w.id)
		}
		reqs = reqs[:1]
	}

	resp, err := r.executeOn(w, reqs, false)
	if err != nil {
		return nil, w.id, err
	}
	if head.Redo {
		r.recomputed.Add(1)
	}
	resp.each(func(i int, m *response) { replies[i] = r.replyOf(w, reqs[i], m) })
	if len(resp.Miss) > 0 {
		// The worker lacked references the residency map promised (evicted
		// or raced); re-send on the same reserved slot with every value
		// inlined. The inlined form cannot miss.
		r.missRetries.Add(1)
		resp, err = r.executeOn(w, reqs[:1], true)
		if err != nil {
			return nil, w.id, err
		}
		if len(resp.Miss) > 0 {
			return nil, w.id, fmt.Errorf("exec: worker %s reported misses for fully inlined %s", w.id, head.Name)
		}
		replies[0] = r.replyOf(w, head, &resp)
	}
	return replies, w.id, nil
}

// holds reports whether w may keep req's outputs to itself.
func (w *workerConn) holds(req *Request) bool {
	return req.Hold && !req.Redo && w.caches && req.named()
}

// replyOf turns one member's wire reply into its Reply. A reply without
// values to a request that allowed it is a held one: a marker per output,
// sized by its Stored report.
func (r *Remote) replyOf(w *workerConn, req *Request, m *response) Reply {
	rep := Reply{Body: time.Duration(m.BodyNs)}
	switch {
	case len(m.Miss) > 0:
		rep.Err = fmt.Errorf("exec: %s did not run on %s: %d references unresolved", req.Name, w.id, len(m.Miss))
	case m.Err != "":
		rep.Err = fmt.Errorf("exec: %s: %s", req.Name, m.Err)
	case len(m.Vals) == 0 && req.NOut > 0 && w.holds(req):
		hs := make([]Held, req.NOut)
		rep.Vals = make([]any, req.NOut)
		for i := range hs {
			hs[i].Ref = ValueRef{Session: req.Session, Task: req.TaskID, Out: i}
			for _, st := range m.Stored {
				if st.Ref == hs[i].Ref {
					hs[i].Bytes = st.Bytes
				}
			}
			rep.Vals[i] = &hs[i] // not among Stored: held nowhere, lost on first use
		}
		r.held.Add(uint64(req.NOut))
	case len(m.Vals) != req.NOut:
		rep.Err = fmt.Errorf("exec: worker %s returned %d values for %s, want %d", w.id, len(m.Vals), req.Name, req.NOut)
	default:
		rep.Vals = m.Vals
	}
	return rep
}

// executeOn performs one wire round trip — reqs as one frame — on an
// already-reserved worker slot. inlineAll forces every reference to travel
// as a RefValue (the post-Miss form). Nothing is sent, or counted, when an
// argument turns out lost (ErrLost).
func (r *Remote) executeOn(w *workerConn, reqs []*Request, inlineAll bool) (response, error) {
	shipped := map[ValueRef]bool{}
	msgs := make([]request, len(reqs))
	for i, req := range reqs {
		args, err := r.buildWireArgs(w, req, inlineAll, shipped)
		if err != nil {
			return response{}, err
		}
		msgs[i] = request{Name: req.Name, NOut: req.NOut, Args: args, Session: req.Session, Task: req.TaskID,
			Store: req.named(), Hold: w.holds(req)}
	}
	msg := &msgs[0]
	msg.ID, msg.Chain = r.nextID.Add(1), msgs[1:]
	name, n := reqs[0].Name, uint64(len(reqs))

	r.frames.Add(1)
	resp, err := r.roundTrip(w, msg.ID, msg, n, name)
	if err != nil {
		return response{}, err
	}
	if len(resp.Chain) != len(msg.Chain) {
		r.failed.Add(n)
		// Not an answer to what was asked: the requests are lost with the stream.
		r.failWorker(w, fmt.Errorf("%d replies to a frame of %d requests", len(resp.Chain)+1, n), FleetDead)
		return response{}, fmt.Errorf("exec: worker %s (%s): %d replies to %d requests", w.id, w.addr, len(resp.Chain)+1, n)
	}
	r.completed.Add(n)
	r.applyResidency(w, &resp)
	hook := r.cacheHook.Load()
	resp.each(func(i int, m *response) {
		r.refHits.Add(uint64(m.RefHits))
		r.refMisses.Add(uint64(m.RefMisses))
		if hook != nil && reqs[i].Session != 0 {
			(*hook)(CacheSample{
				Worker: w.id, Task: max(reqs[i].TaskID, -1),
				Hits: m.RefHits, Misses: m.RefMisses,
				CacheBytes: resp.CacheBytes, Redo: reqs[i].Redo,
			})
		}
	})
	return resp, nil
}

// roundTrip writes f — frame id, standing for n requests — to w and waits for
// the response of that id. Dispatched counts every send *attempt* before its
// outcome is known, so a failed encode still satisfies Dispatched == Completed
// + Failed; the caller counts Completed.
func (r *Remote) roundTrip(w *workerConn, id uint64, f frame, n uint64, name string) (response, error) {
	ch := make(chan response, 1)
	w.pendMu.Lock()
	w.pending[id] = call{ch: ch, n: n}
	w.pendMu.Unlock()
	r.dispatched.Add(n)
	if err := w.link.send(f); err != nil {
		// An argument with no wire form is refused before a byte is written
		// and costs only this attempt; any other failed send leaves the
		// stream out of step, so the connection is retired. Whoever removes
		// the pending entry owns the Failed count: if our delete finds the
		// entry, failWorker hadn't drained it (it never ran, it swapped the
		// map before we registered, or it races behind us) and we count the
		// failure; if the entry is gone, failWorker counted it.
		if !errors.Is(err, errEncode) {
			r.failWorker(w, fmt.Errorf("sending %s: %w", name, err), FleetDead)
		}
		w.pendMu.Lock()
		_, mine := w.pending[id]
		delete(w.pending, id)
		w.pendMu.Unlock()
		if mine {
			r.failed.Add(n)
		}
		return response{}, fmt.Errorf("exec: worker %s (%s): sending %s: %w", w.id, w.addr, name, err)
	}
	resp := <-ch
	if resp.connFailure {
		// Fabricated by failWorker, already counted Failed; a drained
		// request is not a completed one.
		return response{}, fmt.Errorf("exec: %s: %s", name, resp.Err)
	}
	return resp, nil
}

// Pull brings the values of hs home and keeps them in their markers: a pull
// frame to a holder of each, answered from its cache beside the slots, then
// the next holder for what that one turned out not to have. ErrLost when a
// value is on no worker any more — the others are home all the same.
func (r *Remote) Pull(hs []*Held) (err error) {
	hs = slices.Clone(hs)
	slices.SortFunc(hs, func(a, b *Held) int {
		return cmp.Or(cmp.Compare(a.Ref.Session, b.Ref.Session), cmp.Compare(a.Ref.Task, b.Ref.Task), cmp.Compare(a.Ref.Out, b.Ref.Out))
	})
	var todo []*Held
	for _, h := range slices.Compact(hs) {
		// One order for everyone and each marker once: the locks cannot
		// cross, and whoever comes second finds the value home.
		h.mu.Lock()
		defer h.mu.Unlock()
		if !h.have {
			todo = append(todo, h)
		}
	}
	for len(todo) > 0 {
		byHolder := map[*workerConn][]*Held{} // under nil: on no worker
		r.mu.Lock()
		for _, h := range todo {
			var holder *workerConn
			for _, w := range r.workers {
				if _, ok := w.resident[h.Ref]; ok {
					holder = w
					break
				}
			}
			byHolder[holder] = append(byHolder[holder], h)
		}
		r.mu.Unlock()
		todo = nil
		for w, held := range byHolder {
			if w == nil {
				err = ErrLost
			} else {
				todo = append(todo, r.pullFrom(w, held)...)
			}
		}
	}
	return err
}

// pullFrom asks w for hs — locked by the caller — in one frame, fills the ones
// that came and returns the rest, forgotten from w's residency: a holder is
// asked once.
func (r *Remote) pullFrom(w *workerConn, hs []*Held) (missing []*Held) {
	p := &pull{ID: r.nextID.Add(1), Refs: make([]ValueRef, len(hs))}
	for i, h := range hs {
		p.Refs[i] = h.Ref
	}
	r.pulls.Add(1)
	resp, err := r.roundTrip(w, p.ID, p, 0, "pull")
	if err == nil && len(resp.Vals) != len(hs) {
		err = fmt.Errorf("%d values to a pull of %d", len(resp.Vals), len(hs))
		r.failWorker(w, err, FleetDead)
	}
	if err != nil {
		return hs // the connection is gone, and its residency with it
	}
	var gone []ValueRef
	for i, h := range hs {
		if resp.Vals[i] == nil { // no held value is nil: nil is never cached
			missing, gone = append(missing, h), append(gone, h.Ref)
			continue
		}
		h.val, h.have = resp.Vals[i], true
		r.pullBytes.Add(h.Bytes)
	}
	r.applyResidency(w, &response{Evicted: gone})
	if hook := r.cacheHook.Load(); hook != nil {
		(*hook)(CacheSample{Worker: w.id, Task: -1, Pulled: len(hs) - len(missing)})
	}
	return missing
}

// Forget drops session's values from the residency map and tells every live
// member, in a one-way forget frame, to drop them from its cache. The frame
// counts nowhere in RemoteStats; dead members, and every member of a closed
// Remote, are sent nothing.
func (r *Remote) Forget(session uint64) {
	r.mu.Lock()
	var to []*workerConn
	for _, w := range r.workers {
		if w.state == wsDead {
			continue // its residency went with it
		}
		for ref, n := range w.resident {
			if ref.Session == session {
				delete(w.resident, ref)
				w.residentBytes -= n
			}
		}
		if !r.closed {
			to = append(to, w)
		}
	}
	r.mu.Unlock()
	f := &forget{Sessions: []uint64{session}}
	for _, w := range to {
		if err := w.link.send(f); err != nil {
			r.failWorker(w, fmt.Errorf("sending forget: %w", err), FleetDead)
		}
	}
}

// buildWireArgs maps req.Args to their wire form for worker w: an argument
// (or []any element) named by an ArgRef travels as a ValueRef when w is
// believed to hold it and as a cache-seeding RefValue otherwise; everything
// else travels by value. A value another worker holds is among the
// RefValues — the coordinator re-ships it — and when that holder is alive
// its payload counts into refValueBytes: how a test tells a value that
// crossed between workers from a cold one. The input slices are never
// mutated — the runtime owns req.Args.
//
// shipped names the refs the frame has shipped so far: what an earlier
// member of the frame carried, a later one names by its bare ValueRef — the
// worker holds it by then.
//
// An argument may be a *Held: as a reference it travels untouched, and the
// ones that have to travel as values are pulled first, together (ErrLost when
// one is on no worker any more).
func (r *Remote) buildWireArgs(w *workerConn, req *Request, inlineAll bool, shipped map[ValueRef]bool) ([]any, error) {
	if len(req.ArgRefs) == 0 {
		return req.Args, nil
	}
	resident := make([]bool, len(req.ArgRefs)) // on w: send the bare ValueRef
	warm := make([]bool, len(req.ArgRefs))     // on another alive worker
	r.mu.Lock()
	for i, ar := range req.ArgRefs {
		if !inlineAll && w.state != wsDead {
			_, held := w.resident[ar.Ref]
			if resident[i] = held || shipped[ar.Ref]; resident[i] {
				continue
			}
		}
		for _, h := range r.workers {
			if _, ok := h.resident[ar.Ref]; ok && h != w && h.state == wsAlive {
				warm[i] = true
			}
		}
	}
	r.mu.Unlock()

	var pull []*Held
	for i, ar := range req.ArgRefs {
		v, _ := argAt(req.Args, ar)
		if h, ok := v.(*Held); ok && !resident[i] {
			pull = append(pull, h)
		}
	}
	if err := r.Pull(pull); err != nil {
		return nil, err
	}

	out := append([]any(nil), req.Args...)
	cloned := map[int]bool{} // []any args copied-on-write for Elem substitution
	for i, ar := range req.ArgRefs {
		val, ok := argAt(req.Args, ar)
		if !ok {
			continue
		}
		if h, ok := val.(*Held); ok {
			val, _ = h.Value()
		}
		var wire any = ar.Ref
		if !resident[i] {
			wire = RefValue{Ref: ar.Ref, Val: val}
			shipped[ar.Ref] = true
			if warm[i] {
				r.refValueBytes.Add(sizeOfValue(val))
			}
		}
		if ar.Elem < 0 {
			out[ar.Arg] = wire
		} else {
			if !cloned[ar.Arg] {
				out[ar.Arg] = append([]any(nil), out[ar.Arg].([]any)...)
				cloned[ar.Arg] = true
			}
			out[ar.Arg].([]any)[ar.Elem] = wire
		}
	}
	return out, nil
}

// argAt returns the argument — or []any element — ar names, if there is one.
func argAt(args []any, ar ArgRef) (any, bool) {
	if ar.Arg < 0 || ar.Arg >= len(args) {
		return nil, false
	}
	if ar.Elem < 0 {
		return args[ar.Arg], true
	}
	if inner, ok := args[ar.Arg].([]any); ok && ar.Elem < len(inner) {
		return inner[ar.Elem], true
	}
	return nil, false
}

// applyResidency folds one response frame's Stored/Evicted reports into the
// coordinator's view of w's cache. Draining members still fold — their
// in-flight responses are the flush of the piggybacked reports — though the
// view is dropped wholesale when the drain finishes.
func (r *Remote) applyResidency(w *workerConn, resp *response) {
	r.mu.Lock()
	if w.state != wsDead {
		for _, ev := range resp.Evicted {
			if n, ok := w.resident[ev]; ok {
				delete(w.resident, ev)
				w.residentBytes -= n
			}
		}
		resp.each(func(_ int, m *response) {
			for _, st := range m.Stored {
				if _, ok := w.resident[st.Ref]; !ok {
					w.residentBytes += st.Bytes
				}
				w.resident[st.Ref] = st.Bytes
			}
		})
	}
	r.mu.Unlock()
}

// Workers returns a snapshot of every member the fleet has ever admitted,
// retired ones included (their State is "dead").
func (r *Remote) Workers() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, len(r.workers))
	for i, w := range r.workers {
		out[i] = WorkerInfo{
			ID: w.id, Addr: w.addr, Pid: w.pid, Slots: w.slots,
			State: w.state.String(), Inflight: w.inflight, Done: w.done.Load(),
			ResidentBytes: w.residentBytes,
		}
	}
	return out
}

// AliveWorkers returns the number of members still accepting dispatches.
func (r *Remote) AliveWorkers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aliveLocked()
}

// SlotTotal returns the live slot total across alive members — the fleet's
// current execution capacity. The compss runtime reads it once, in New, to
// size its pool.
func (r *Remote) SlotTotal() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slotTotalLocked()
}

// membershipChanged publishes one fleet transition as a FleetEvent to the
// hook (traces).
func (r *Remote) membershipChanged(kind, worker, reason string) {
	hook := r.fleetHook.Load()
	if hook == nil {
		return
	}
	r.mu.Lock()
	ev := FleetEvent{
		Kind: kind, Worker: worker, Reason: reason,
		Workers: r.aliveLocked(), Slots: r.slotTotalLocked(),
	}
	r.mu.Unlock()
	(*hook)(ev)
}

// Stats returns cumulative dispatch counters.
func (r *Remote) Stats() RemoteStats {
	st := RemoteStats{
		Dispatched:    r.dispatched.Load(),
		Completed:     r.completed.Load(),
		Failed:        r.failed.Load(),
		Frames:        r.frames.Load(),
		RefHits:       r.refHits.Load(),
		RefMisses:     r.refMisses.Load(),
		MissRetries:   r.missRetries.Load(),
		Held:          r.held.Load(),
		Pulls:         r.pulls.Load(),
		PullBytes:     uint64(r.pullBytes.Load()),
		Recomputed:    r.recomputed.Load(),
		RefValueBytes: uint64(r.refValueBytes.Load()),
	}
	r.mu.Lock()
	for _, w := range r.workers {
		st.BytesSent += uint64(w.link.sent.Load())
		st.BytesRecv += uint64(w.link.recvd.Load())
	}
	st.Joined = r.joined
	st.Left = r.left
	st.PeakWorkers = r.peakAlive
	r.mu.Unlock()
	return st
}

// KillWorker forcibly terminates the i-th loopback-spawned worker (SIGKILL,
// in spawn order) — the fault-injection hook for crash-recovery tests. The
// death is observed the same way a real crash would be: the connection
// drops, in-flight attempts fail, and the worker is retired. It errors for
// workers Remote did not spawn (it has no authority over processes it only
// dialed). The kill runs under r.mu so it cannot race Close's reap of the
// same process (Kill after Wait on a reaped process is a use-after-free of
// the pid).
func (r *Remote) KillWorker(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("exec: backend is closed")
	}
	if i < 0 || i >= len(r.spawned) || r.spawned[i].proc == nil {
		return fmt.Errorf("exec: worker %d was not spawned by this coordinator", i)
	}
	return r.spawned[i].proc.Kill()
}

// Close stops the fleet listener, retires every member, fails pending
// requests, and reaps loopback processes. The per-member proc handles are
// tombstoned under r.mu before reaping so a concurrent KillWorker can never
// touch a reaped process.
func (r *Remote) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	workers := append([]*workerConn(nil), r.workers...)
	var procs []*os.Process
	for _, w := range workers {
		if w.proc != nil {
			procs = append(procs, w.proc)
			w.proc = nil
		}
	}
	l := r.listener
	r.cond.Broadcast()
	r.mu.Unlock()

	if l != nil {
		l.Close()
	}
	for _, w := range workers {
		r.failWorker(w, fmt.Errorf("backend closed"), "")
	}
	for _, p := range procs {
		_ = p.Kill()
		_, _ = p.Wait()
	}
	return nil
}
