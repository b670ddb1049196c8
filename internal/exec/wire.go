package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// The wire format (protocol 8): length-prefixed binary frames over one TCP
// connection per worker — and one per peer link — multiplexed by frame ID.
//
//	offset  size  field
//	0       4     length of everything after this field, little-endian; 1 ≤ length ≤ maxFrameBytes
//	4       1     frame kind (hello, request, response, peerHello, peerRequest, peerResponse, pull, forget)
//	5       …     the kind's fields in declaration order: integers as varints,
//	              strings length-prefixed, Args/Vals/Val as tagged values (codec.go)
//
// The worker sends one hello; the coordinator then writes request frames and
// reads response frames in any interleaving — frames run concurrently, bounded
// by the worker's slots, and are answered in completion order. A request
// frame carries one request or a chain — a head, then requests whose missing
// inputs earlier members produce — run in order on one slot and answered by
// one response frame with every member's reply. A stored request that allows
// it (Hold) is answered without its outputs when the cache took them all; a
// pull frame, answered from the cache by a response and beside the slots,
// brings home the ones the coordinator turns out to read. A forget frame is
// one-way: nothing can read the sessions it lists any more, and the worker
// drops their entries from its cache, inline, with no reply. A peer link runs
// the same way: peerHello, then peerRequest/peerResponse frames.
//
// Each end of a connection is one link: one buffered reader, every read
// charged against the current frame's length, and one buffered writer under a
// lock. A frame is sized, then written — scalars into the buffer, bulk float
// data from its backing array to the socket — and decoded straight into the
// slice the body will read: one copy a hop, no frame staged whole.
//
// An argument travels as a ValueRef (the identity of an output the worker
// holds in its future cache), a RefValue (value plus identity, kept resident
// for the next consumer) or a PeerRef (directions to a worker that holds it).
// The worker never trusts the coordinator's residency view: a reference it
// cannot resolve is answered with response.Miss and no execution, and the
// coordinator re-sends with every reference inlined — a stale map costs a
// round trip, never an answer. A chain follower names an earlier member's
// output by bare ValueRef and misses, alone, unless that output is cached.

// protoVersion guards against dialing a worker built from an incompatible
// checkout: both hellos carry it first, and a mismatch is rejected before
// any task payload is decoded.
const protoVersion = 8

// maxFrameBytes bounds one frame. A length prefix above it fails the
// connection before anything is read or allocated; below it, every length
// inside the frame is checked against the bytes the frame has left.
const maxFrameBytes = 1 << 30

// Frame kinds.
const (
	kindHello byte = iota + 1
	kindRequest
	kindResponse
	kindPeerHello
	kindPeerRequest
	kindPeerResponse
	kindPull
	kindForget
)

// frame is one message of the protocol: it knows its kind byte and how to
// write and read its fields. encode runs twice per send (Encoder) and must
// not change what it writes between the two.
type frame interface {
	kind() byte
	encode(e *Encoder)
	decode(d *Decoder)
}

// link is one end of a framed connection. send may be called from any
// goroutine; recv belongs to the single goroutine that reads the connection
// — from the hello on, so nothing the reader buffered is ever lost between
// a handshake and the loop that follows it.
type link struct {
	conn net.Conn
	dec  Decoder

	wmu sync.Mutex // serialises frames onto w
	w   *bufio.Writer
	enc Encoder

	maxFrame int // maxFrameBytes; tests and fuzzers set a bound they can afford to hit

	// sent / recvd are the exact frame bytes that crossed this end, prefix
	// included: RemoteStats.BytesSent/BytesRecv sum them per coordinator
	// link, and the peer plane attributes the per-frame counts send and recv
	// return.
	sent, recvd atomic.Int64
}

// linkBufBytes sizes both buffers of a link: large enough that a small
// request or response is one write, small enough that a matrix bypasses it.
const linkBufBytes = 32 << 10

func newLink(conn net.Conn) *link {
	l := &link{conn: conn, w: bufio.NewWriterSize(conn, linkBufBytes), maxFrame: maxFrameBytes}
	l.dec.r = bufio.NewReaderSize(conn, linkBufBytes)
	return l
}

// send writes f as one frame and returns its size on the wire. An error
// wrapping errEncode means nothing was written and the link is still good;
// any other error leaves the stream out of step and the caller must retire
// the connection.
func (l *link) send(f frame) (int64, error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	n, err := l.enc.size(f.encode)
	if err != nil {
		return 0, err
	}
	if n+1 > l.maxFrame {
		return 0, fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte bound", errEncode, n+1, l.maxFrame)
	}
	head := l.enc.buf[:5]
	binary.LittleEndian.PutUint32(head, uint32(n+1))
	head[4] = f.kind()
	_, _ = l.w.Write(head) // the writer keeps its first error for Flush
	if err := l.enc.emit(l.w, f.encode); err != nil {
		return 0, err
	}
	if err := l.w.Flush(); err != nil {
		return 0, err
	}
	total := int64(n) + 5
	l.sent.Add(total)
	return total, nil
}

// recv reads the next frame into f and returns its size on the wire. Any
// error — a prefix out of bounds, the wrong kind, a value that overruns or
// underruns its frame — leaves the stream unusable.
func (l *link) recv(f frame) (int64, error) {
	_, n, err := l.recvAny(f)
	return n, err
}

// recvAny is recv for a reader that takes more than one kind of frame: the
// next frame goes into the one of fs that has its kind, whose index is
// returned.
func (l *link) recvAny(fs ...frame) (int, int64, error) {
	d := &l.dec
	head := d.buf[:5]
	if _, err := io.ReadFull(d.r, head); err != nil {
		return 0, 0, err
	}
	n, kind := binary.LittleEndian.Uint32(head), head[4]
	if n < 1 || int64(n) > int64(l.maxFrame) {
		return 0, 0, fmt.Errorf("exec: frame length %d outside [1, %d]", n, l.maxFrame)
	}
	which := 0
	for which < len(fs) && fs[which].kind() != kind {
		which++
	}
	if which == len(fs) {
		return 0, 0, fmt.Errorf("exec: frame kind %d, want %d", kind, fs[0].kind())
	}
	d.rem, d.depth, d.err = int(n)-1, 0, nil
	fs[which].decode(d)
	if d.err != nil {
		return 0, 0, fmt.Errorf("exec: decoding frame kind %d: %w", kind, d.err)
	}
	if d.rem != 0 {
		return 0, 0, fmt.Errorf("exec: frame kind %d has %d trailing bytes", kind, d.rem)
	}
	total := int64(n) + 4
	l.recvd.Add(total)
	return which, total, nil
}

// hello is the worker → coordinator handshake frame. The worker always
// sends it first, whichever side dialed: on the classic path the
// coordinator dials a listening worker and reads the hello off the fresh
// connection; in fleet listen mode a worker dials the coordinator and the
// hello doubles as its registration request.
type hello struct {
	Proto int // protocol version; must equal protoVersion
	Pid   int // worker process id (diagnostics, trace labels)
	Slots int // concurrent task bodies the worker will run
	// Token is the fleet join credential. The coordinator ignores it on
	// connections it dialed itself (it chose the address) but requires it to
	// match its JoinToken on dial-in registrations — a stray connection to
	// the listen port must not become a task executor. Re-admission after a
	// crash presents the same token; the re-admitted worker still gets a
	// fresh id (its old residency died with the old connection).
	Token string
	// PeerAddr is the worker's peer-transfer listener: the
	// address other workers dial to pull this connection's resident values
	// directly. Empty when the worker has peer transfers disabled; the host
	// may be unspecified ("[::]:port" from a :0 bind), in which case the
	// coordinator substitutes the host it reaches the worker at.
	PeerAddr string
	// PeerToken scopes peer fetches to this coordinator connection: it is
	// minted fresh per connection and names the connection's future cache on
	// the peer listener (peer.go). A restarted worker at the same address
	// mints a new token, so PeerRefs built against the old connection can
	// never be served stale data — they fail token lookup and fall back to
	// the coordinator Miss/resend path.
	PeerToken string
	// Caches says the connection has a future cache. A member without one is
	// offered neither chains nor held outputs: both would come back as Misses.
	Caches bool
}

// ValueRef names one output of a task executed earlier: (session, task,
// output index). Sessions are per-coordinator-runtime counters (see
// NextSession), so cache keys never collide across runtimes sharing one
// backend. A ValueRef travels in request.Args in place of the value when
// the coordinator believes the worker holds it.
type ValueRef struct {
	Session uint64
	Task    int
	Out     int
}

// RefValue is a value traveling *with* its identity: the worker keeps the
// decoded value in its future cache under Ref and hands it to this request's
// body, making the value resident there for future reference-only
// requests (this is how a value gets replicated to a second worker, and how
// the first consumer of a coordinator-produced value seeds the cache).
type RefValue struct {
	Ref ValueRef
	Val any
}

// PeerRef is a reference plus directions to a holder: the
// coordinator sends it in place of a RefValue when the value is resident on
// some *other* alive worker — the executing worker dials Addr, presents
// Token, and pulls the value over the peer link instead of receiving it
// through the coordinator. Every failure (holder gone, draining away, wrong
// token, timeout) degrades the PeerRef into a Miss, which the coordinator
// answers by re-sending with values inlined — the peer plane is an
// optimization layered on the Miss/resend correctness backstop, never a new
// way to get a wrong answer.
type PeerRef struct {
	Ref   ValueRef
	Addr  string // the holder's peer listener (hello.PeerAddr, host fixed up)
	Token string // the holder connection's PeerToken
}

// StoredRef reports one cache insertion back to the coordinator, which
// records residency (Bytes feeds placement scoring).
type StoredRef struct {
	Ref   ValueRef
	Bytes int64
}

// request is one coordinator → worker task dispatch; the head of a frame
// carries the frame's other requests in Chain.
type request struct {
	ID   uint64 // multiplexing key, unique per connection (0 on chain members)
	Name string // registered function name
	NOut int    // declared output arity (validated worker-side)
	// Args are the resolved arguments; an element (or an element of a nested
	// []any) may be a ValueRef, RefValue or PeerRef instead of a plain value.
	Args []any
	// Session + Task identify the producing task; the worker caches the
	// outputs under this identity when Store is set. Store is false for an
	// anonymous request (no session or no task id: direct Execute calls).
	Session uint64
	Task    int
	Store   bool
	// Hold lets the worker keep the outputs of a stored request to itself:
	// when its cache took every one, the reply carries their Stored reports
	// and no Vals. Unset when someone on the coordinator is known to read them.
	Hold bool
	// Chain are the requests that follow this one in its frame. Members have
	// none of their own: the encoding has no place for it.
	Chain []request
}

// pull asks a worker for values its cache holds. The reply is a response:
// Vals in the order of Refs, Miss naming the ones that are not there (their
// Vals are nil). It is answered beside the slots, not through them.
type pull struct {
	ID   uint64
	Refs []ValueRef
}

func (p *pull) kind() byte { return kindPull }

func (p *pull) encode(e *Encoder) {
	e.uvarint(p.ID)
	e.refs(p.Refs)
}

func (p *pull) decode(d *Decoder) {
	p.ID = d.uvarint()
	p.Refs = d.refs()
}

// forget tells a worker that nothing can read a value of these sessions any
// more. Nobody waits for it: it has no ID and no reply.
type forget struct {
	Sessions []uint64
}

func (f *forget) kind() byte { return kindForget }

func (f *forget) encode(e *Encoder) {
	e.Len(len(f.Sessions))
	for _, s := range f.Sessions {
		e.uvarint(s)
	}
}

func (f *forget) decode(d *Decoder) {
	f.Sessions = nil
	for n := d.Len(1); n > 0 && d.err == nil; n-- {
		f.Sessions = append(f.Sessions, d.uvarint())
	}
}

// response is the worker's reply to one request. Err is a string — error
// values have no wire form — and is re-wrapped by the coordinator; the task-level
// typed error (compss.TaskError) is applied by the runtime on top.
type response struct {
	ID uint64
	// Vals are the outputs; none, with no Err and no Miss, when the request
	// allowed the worker to hold them and Stored reports every one.
	Vals []any
	Err  string

	// Miss lists references the worker could not resolve; when non-empty
	// the body did NOT run and Vals is nil — the coordinator must re-send
	// with the missing values inlined. The miss path is the correctness
	// backstop for every residency race (eviction, crash, stale map).
	Miss []ValueRef
	// Stored lists cache insertions this request performed (task outputs
	// and RefValue replicas); Evicted lists entries the insertions pushed
	// out. Together they keep the coordinator's residency map eventually
	// consistent with the worker's cache — advisory only, Miss is the
	// guarantee.
	Stored  []StoredRef
	Evicted []ValueRef
	// CacheBytes is the worker cache occupancy after this request, and
	// RefHits/RefMisses count the reference resolutions it performed; both
	// feed RemoteStats and the trace's data-plane track.
	CacheBytes int64
	RefHits    int
	RefMisses  int

	// PeerFetched counts arguments this request resolved over the peer
	// link (a deduplicated transfer still counts once per consuming
	// request — the counter measures values that did NOT need a coordinator
	// hop), and PeerValBytes is their total payload size (sizeOfValue
	// units, comparable with StoredRef.Bytes).
	PeerFetched  int
	PeerValBytes int64
	// PeerSent / PeerRecv are exact wire-byte deltas of this worker
	// connection's peer traffic (fetch requests sent + values served, and
	// the mirror image) since the previous response — drained like Evicted,
	// so summing them coordinator-side yields exact per-link totals.
	PeerSent int64
	PeerRecv int64
	// BodyNs is the time the worker spent on this request alone (resolve,
	// run, store), in nanoseconds.
	BodyNs int64
	// Chain are the replies to request.Chain, in order. Evicted, CacheBytes,
	// PeerSent and PeerRecv are drained once per frame, onto the head.
	Chain []response

	// connFailure marks a response fabricated by the coordinator's
	// failWorker when a connection died — not a reply received from a
	// worker. It has no wire field, so received responses always carry false.
	// It keeps the stats partition exact (a drained failure is
	// counted in Failed, never also in Completed).
	connFailure bool
}

func (h *hello) kind() byte { return kindHello }

func (h *hello) encode(e *Encoder) {
	e.Int(h.Proto)
	e.Int(h.Pid)
	e.Int(h.Slots)
	e.str(h.Token)
	e.str(h.PeerAddr)
	e.str(h.PeerToken)
	e.Bool(h.Caches)
}

// decode stops after a foreign Proto: the rest of the frame is whatever
// that version put there, and the caller rejects the hello on Proto alone.
func (h *hello) decode(d *Decoder) {
	if h.Proto = d.Int(); h.Proto != protoVersion {
		d.skipRest()
		return
	}
	h.Pid = d.Int()
	h.Slots = d.Int()
	h.Token = d.str()
	h.PeerAddr = d.str()
	h.PeerToken = d.str()
	h.Caches = d.Bool()
}

// skipRest discards what is left of the current frame.
func (d *Decoder) skipRest() {
	if d.err != nil {
		return
	}
	if _, err := d.r.Discard(d.rem); err != nil {
		d.Fail(err)
	}
	d.rem = 0
}

func (r *request) kind() byte { return kindRequest }

func (r *request) encode(e *Encoder) {
	r.encodeOne(e)
	e.Len(len(r.Chain))
	for i := range r.Chain {
		r.Chain[i].encodeOne(e)
	}
}

func (r *request) encodeOne(e *Encoder) {
	e.uvarint(r.ID)
	e.str(r.Name)
	e.Int(r.NOut)
	e.uvarint(r.Session)
	e.Int(r.Task)
	e.Bool(r.Store)
	e.Bool(r.Hold)
	e.anys(r.Args)
}

func (r *request) decode(d *Decoder) {
	r.decodeOne(d)
	for n := d.Len(8); n > 0 && d.err == nil; n-- { // 8: the smallest member
		var m request
		m.decodeOne(d)
		r.Chain = append(r.Chain, m)
	}
}

func (r *request) decodeOne(d *Decoder) {
	r.ID = d.uvarint()
	r.Name = d.str()
	r.NOut = d.Int()
	r.Session = d.uvarint()
	r.Task = d.Int()
	r.Store = d.Bool()
	r.Hold = d.Bool()
	r.Args = d.anys()
}

func (r *response) kind() byte { return kindResponse }

func (r *response) encode(e *Encoder) {
	r.encodeOne(e)
	e.Len(len(r.Chain))
	for i := range r.Chain {
		r.Chain[i].encodeOne(e)
	}
}

func (r *response) encodeOne(e *Encoder) {
	e.uvarint(r.ID)
	e.anys(r.Vals)
	e.str(r.Err)
	e.refs(r.Miss)
	e.Len(len(r.Stored))
	for _, st := range r.Stored {
		e.ref(st.Ref)
		e.varint(st.Bytes)
	}
	e.refs(r.Evicted)
	e.varint(r.CacheBytes)
	e.Int(r.RefHits)
	e.Int(r.RefMisses)
	e.Int(r.PeerFetched)
	e.varint(r.PeerValBytes)
	e.varint(r.PeerSent)
	e.varint(r.PeerRecv)
	e.varint(r.BodyNs)
}

func (r *response) decode(d *Decoder) {
	r.decodeOne(d)
	for n := d.Len(14); n > 0 && d.err == nil; n-- { // 14: the smallest member
		var m response
		m.decodeOne(d)
		r.Chain = append(r.Chain, m)
	}
}

func (r *response) decodeOne(d *Decoder) {
	r.ID = d.uvarint()
	r.Vals = d.anys()
	r.Err = d.str()
	r.Miss = d.refs()
	if n := d.Len(4); n > 0 {
		r.Stored = make([]StoredRef, 0, prealloc(n))
		for i := 0; i < n && d.err == nil; i++ {
			r.Stored = append(r.Stored, StoredRef{Ref: d.ref(), Bytes: d.varint()})
		}
	}
	r.Evicted = d.refs()
	r.CacheBytes = d.varint()
	r.RefHits = d.Int()
	r.RefMisses = d.Int()
	r.PeerFetched = d.Int()
	r.PeerValBytes = d.varint()
	r.PeerSent = d.varint()
	r.PeerRecv = d.varint()
	r.BodyNs = d.varint()
}

// each calls fn on the head reply and on every chain member's, in order.
func (r *response) each(fn func(i int, m *response)) {
	fn(0, r)
	for i := range r.Chain {
		fn(i+1, &r.Chain[i])
	}
}
