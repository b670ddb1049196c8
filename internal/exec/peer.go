package exec

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The peer-to-peer data plane, worker side. Values are resident where they
// were produced; seeding a consumer placed elsewhere through the coordinator
// (a RefValue hop) would let the coordinator's NIC cap aggregate throughput
// as the fleet grows, so the consumer pulls the value straight from the
// holder: each worker process opens one peer listener (advertised in the
// hello), the coordinator sends a PeerRef naming the holder's address and
// connection token, and the executing worker dials the holder and transfers
// the value over a cached, multiplexed peer link. The coordinator carries
// metadata only for warm refs.
//
// # Fallback ladder
//
// The peer plane is an optimization, never a correctness dependency. Every
// failure — holder crashed, holder drained away, poisoned address, wrong or
// stale token, fetch timeout — turns the PeerRef into an ordinary Miss: the
// body does not run, the coordinator re-sends with values inlined, and the
// result is bit-identical to the in-process run. A restarted worker at the
// same address mints a fresh PeerToken per coordinator connection, so a
// PeerRef built against a dead connection can never be served stale data:
// the token lookup fails and the ladder takes over.
//
// # Byte accounting
//
// Each peer connection is bound to one token (the client announces it in
// peerHello), so every frame on the connection is attributable to exactly
// one coordinator connection's peerStore/peerFetcher. Both ends add each
// frame's exact size to atomic counters that the serve loop drains onto the
// next response (PeerSent/PeerRecv) — the coordinator's
// PeerBytesSent/PeerBytesRecv totals are exact sums of surviving
// connections' traffic, disjoint from the coordinator-link BytesSent/
// BytesRecv counters.

// peerHello binds a fresh peer connection to one holder token: the server
// refuses mismatched protocol versions and serves only refs resident in the
// token's cache.
type peerHello struct {
	Proto int
	Token string
}

func (h *peerHello) kind() byte { return kindPeerHello }

func (h *peerHello) encode(e *Encoder) {
	e.Int(h.Proto)
	e.str(h.Token)
}

// decode stops after a foreign Proto, like hello's.
func (h *peerHello) decode(d *Decoder) {
	if h.Proto = d.Int(); h.Proto != protoVersion {
		d.skipRest()
		return
	}
	h.Token = d.str()
}

// peerRequest asks the holder for one resident value.
type peerRequest struct {
	ID  uint64
	Ref ValueRef
}

func (r *peerRequest) kind() byte { return kindPeerRequest }

func (r *peerRequest) encode(e *Encoder) {
	e.uvarint(r.ID)
	e.ref(r.Ref)
}

func (r *peerRequest) decode(d *Decoder) {
	r.ID = d.uvarint()
	r.Ref = d.ref()
}

// peerResponse answers one peerRequest. OK=false means the value is not
// resident under the connection's token (evicted, or the token's connection
// is gone) — the fetcher turns it into a Miss, never an invented value.
type peerResponse struct {
	ID  uint64
	OK  bool
	Val any
}

func (r *peerResponse) kind() byte { return kindPeerResponse }

func (r *peerResponse) encode(e *Encoder) {
	e.uvarint(r.ID)
	e.Bool(r.OK)
	e.Value(r.Val)
}

func (r *peerResponse) decode(d *Decoder) {
	r.ID = d.uvarint()
	r.OK = d.Bool()
	r.Val = d.Value()
}

// peerStore is the serving side of one coordinator connection's cache: it
// is registered under the connection's fresh PeerToken while the serve loop
// runs and deregistered when the connection closes, which is exactly the
// stale-session guard — a dead connection's token stops resolving, so its
// refs stop being served.
type peerStore struct {
	cache      *futureCache
	sent, recv atomic.Int64  // wire bytes served under this token
	served     atomic.Uint64 // fetches answered OK (single-flight observability)
}

// drainBytes returns and resets the byte deltas accumulated since the last
// drain; the serve loop piggybacks them on the next response.
func (s *peerStore) drainBytes() (sent, recv int64) {
	return s.sent.Swap(0), s.recv.Swap(0)
}

// peerSrv is the process-wide peer listener: one per worker process, shared
// by every coordinator connection (a worker serving several coordinators
// hosts several tokens behind one address). It opens lazily on the first registration; the first
// registration's listen address wins, later ones reuse it.
var peerSrv struct {
	mu     sync.Mutex
	l      net.Listener
	addr   string
	stores map[string]*peerStore
}

// registerPeerStore opens the process peer listener (lazily) and registers
// cache under a fresh token. It returns the advertised address and the
// token, or ("", "", nil) when peer serving is unavailable (listen == "off",
// or the bind failed) — the caller then advertises no peer plane and the
// coordinator never routes peer traffic at it (fail open).
func registerPeerStore(cache *futureCache, listen string, logw io.Writer) (addr, token string, store *peerStore) {
	if listen == "off" || cache == nil {
		return "", "", nil
	}
	if listen == "" {
		listen = ":0"
	}
	peerSrv.mu.Lock()
	defer peerSrv.mu.Unlock()
	if peerSrv.l == nil {
		l, err := net.Listen("tcp", listen)
		if err != nil {
			if logw != nil {
				fmt.Fprintf(logw, "worker: peer listen %s: %v (peer transfers disabled)\n", listen, err)
			}
			return "", "", nil
		}
		peerSrv.l = l
		peerSrv.addr = l.Addr().String()
		if peerSrv.stores == nil {
			peerSrv.stores = map[string]*peerStore{}
		}
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				go servePeerConn(conn)
			}
		}()
	}
	token = newJoinToken()
	store = &peerStore{cache: cache}
	peerSrv.stores[token] = store
	return peerSrv.addr, token, store
}

// deregisterPeerStore retires a token when its coordinator connection
// closes. In-flight peer requests for the token finish or fail per-request
// (lookupPeerStore is per request); new ones see OK=false.
func deregisterPeerStore(token string) {
	if token == "" {
		return
	}
	peerSrv.mu.Lock()
	delete(peerSrv.stores, token)
	peerSrv.mu.Unlock()
}

func lookupPeerStore(token string) *peerStore {
	peerSrv.mu.Lock()
	defer peerSrv.mu.Unlock()
	return peerSrv.stores[token]
}

// servePeerConn serves one inbound peer connection: bind it to the hello's
// token, then answer fetches in arrival order. Requests are handled inline —
// response writes serialize on the connection anyway, so a goroutine per
// request would buy nothing — and the store is looked up per request, so a
// token deregistered mid-connection stops serving immediately. The resident
// value is encoded straight onto the socket: encoding only reads it. A
// frame that does not decode closes the connection.
func servePeerConn(conn net.Conn) {
	defer conn.Close()
	l := newLink(conn)
	var h peerHello
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	helloBytes, err := l.recv(&h)
	if err != nil || h.Proto != protoVersion {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	for {
		var req peerRequest
		in, err := l.recv(&req)
		if err != nil {
			return
		}
		// The hello is charged to the store the first fetch resolves.
		in, helloBytes = in+helloBytes, 0
		st := lookupPeerStore(h.Token)
		resp := peerResponse{ID: req.ID}
		if st != nil {
			resp.Val, resp.OK = st.cache.get(req.Ref)
		}
		if resp.OK {
			// Counted before the write: the fetcher may act on the reply
			// the instant it is on the wire.
			st.served.Add(1)
		}
		out, err := l.send(&resp)
		if st != nil {
			st.recv.Add(in)
			st.sent.Add(out)
		}
		if err != nil {
			return
		}
	}
}

// defaultPeerFetchTimeout bounds one peer fetch when WorkerConfig leaves
// PeerFetchTimeout zero: long enough for a large block over a congested
// link, short enough that a hung holder degrades into one Miss round trip
// instead of a stalled task.
const defaultPeerFetchTimeout = 5 * time.Second

// peerFetcher is the pulling side, one per coordinator connection (so its
// byte counters drain onto that connection's responses). It keeps one
// multiplexed link per (addr, token) holder and deduplicates concurrent
// fetches of the same ref: one transfer crosses the wire and every waiting
// consumer receives the one decoded value, to read and not to write.
type peerFetcher struct {
	timeout    time.Duration
	mu         sync.Mutex
	links      map[fetchKey]*peerLink // keyed by (addr, token); Ref zero
	calls      map[fetchKey]*fetchCall
	sent, recv atomic.Int64
}

type fetchKey struct {
	addr, token string
	ref         ValueRef
}

// fetchCall is one in-flight single-flight transfer.
type fetchCall struct {
	done chan struct{}
	val  any
	err  error
}

func newPeerFetcher(timeout time.Duration) *peerFetcher {
	if timeout <= 0 {
		timeout = defaultPeerFetchTimeout
	}
	return &peerFetcher{
		timeout: timeout,
		links:   map[fetchKey]*peerLink{},
		calls:   map[fetchKey]*fetchCall{},
	}
}

// drainBytes returns and resets the fetch-side byte deltas since the last
// drain.
func (f *peerFetcher) drainBytes() (sent, recv int64) {
	return f.sent.Swap(0), f.recv.Swap(0)
}

// fetch pulls ref from the holder at addr/token. Concurrent fetches of the
// same (addr, token, ref) share one wire transfer and its one decoded
// value: callers make it resident and read it, never write to it.
func (f *peerFetcher) fetch(addr, token string, ref ValueRef) (any, error) {
	k := fetchKey{addr: addr, token: token, ref: ref}
	f.mu.Lock()
	if c, ok := f.calls[k]; ok {
		f.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &fetchCall{done: make(chan struct{})}
	f.calls[k] = c
	f.mu.Unlock()

	c.val, c.err = f.fetchOne(addr, token, ref)
	f.mu.Lock()
	delete(f.calls, k)
	f.mu.Unlock()
	close(c.done)
	return c.val, c.err
}

// fetchOne performs one wire transfer on the holder's (cached) link.
func (f *peerFetcher) fetchOne(addr, token string, ref ValueRef) (any, error) {
	lk := fetchKey{addr: addr, token: token}
	f.mu.Lock()
	l := f.links[lk]
	if l != nil && l.dead.Load() {
		delete(f.links, lk)
		l = nil
	}
	if l == nil {
		l = &peerLink{addr: addr, token: token, fetcher: f, pending: map[uint64]chan peerResponse{}}
		f.links[lk] = l
	}
	f.mu.Unlock()

	l.dialOnce.Do(func() { l.dialErr = l.dial(f.timeout) })
	if l.dialErr != nil {
		f.mu.Lock()
		if f.links[lk] == l {
			delete(f.links, lk)
		}
		f.mu.Unlock()
		return nil, l.dialErr
	}
	return l.roundTrip(ref, f.timeout)
}

// close tears down every link; in-flight round trips fail (and degrade into
// Misses on the owning connection, which is itself going away).
func (f *peerFetcher) close() {
	f.mu.Lock()
	links := make([]*peerLink, 0, len(f.links))
	for _, l := range f.links {
		links = append(links, l)
	}
	f.links = map[fetchKey]*peerLink{}
	f.mu.Unlock()
	for _, l := range links {
		l.fail()
	}
}

// peerLink is one multiplexed connection to one holder token: requests are
// written under sendMu, responses return in any order and are demuxed by ID
// like the coordinator link.
type peerLink struct {
	addr, token string
	fetcher     *peerFetcher

	dialOnce sync.Once
	dialErr  error

	link *link

	pendMu  sync.Mutex
	pending map[uint64]chan peerResponse

	nextID atomic.Uint64
	dead   atomic.Bool
}

func (l *peerLink) dial(timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", l.addr, timeout)
	if err != nil {
		l.dead.Store(true)
		return fmt.Errorf("exec: dialing peer %s: %w", l.addr, err)
	}
	lk := newLink(conn)
	n, err := lk.send(&peerHello{Proto: protoVersion, Token: l.token})
	if err != nil {
		conn.Close()
		l.dead.Store(true)
		return fmt.Errorf("exec: peer handshake with %s: %w", l.addr, err)
	}
	l.fetcher.sent.Add(n)
	l.link = lk
	go l.readLoop()
	return nil
}

// readLoop demuxes the holder's replies; a frame that does not decode
// retires the link, which fails every waiting fetch into a Miss.
func (l *peerLink) readLoop() {
	for {
		var resp peerResponse
		n, err := l.link.recv(&resp)
		if err != nil {
			l.fail()
			return
		}
		l.fetcher.recv.Add(n)
		l.pendMu.Lock()
		ch := l.pending[resp.ID]
		delete(l.pending, resp.ID)
		l.pendMu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// fail retires the link: the connection closes, every waiter's channel is
// closed (a closed receive reads as a connection-lost error in roundTrip),
// and the next fetch to this holder dials a fresh link.
func (l *peerLink) fail() {
	if l.dead.Swap(true) {
		return
	}
	if l.link != nil {
		l.link.conn.Close()
	}
	l.pendMu.Lock()
	drained := l.pending
	l.pending = map[uint64]chan peerResponse{}
	l.pendMu.Unlock()
	for _, ch := range drained {
		close(ch)
	}
}

func (l *peerLink) roundTrip(ref ValueRef, timeout time.Duration) (any, error) {
	id := l.nextID.Add(1)
	ch := make(chan peerResponse, 1)
	l.pendMu.Lock()
	l.pending[id] = ch
	l.pendMu.Unlock()

	n, err := l.link.send(&peerRequest{ID: id, Ref: ref})
	l.fetcher.sent.Add(n)
	if err != nil {
		l.fail()
		return nil, fmt.Errorf("exec: peer %s: sending fetch: %w", l.addr, err)
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("exec: peer %s: connection lost mid-fetch", l.addr)
		}
		if !resp.OK {
			return nil, fmt.Errorf("exec: peer %s does not hold %v", l.addr, ref)
		}
		return resp.Val, nil
	case <-timer.C:
		l.pendMu.Lock()
		delete(l.pending, id)
		l.pendMu.Unlock()
		return nil, fmt.Errorf("exec: peer %s: fetch timed out after %v", l.addr, timeout)
	}
}
