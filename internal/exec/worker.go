package exec

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"taskml/internal/par"
)

// WorkerConfig configures Serve.
type WorkerConfig struct {
	// Slots is how many task bodies run concurrently. Default 1 — the
	// dislib-like configuration of one serial body per worker process, with
	// parallelism coming from many workers.
	Slots int
	// CacheBytes bounds the per-connection future cache (see cache.go).
	// Default DefaultCacheBytes; <0 disables caching (0 means default).
	CacheBytes int64
	// PeerListen is the worker-to-worker transfer listen address (see
	// peer.go): "" binds ":0" (the default — peer transfers on, any free
	// port), "off" disables the peer plane for this worker. The bound
	// address is advertised to the coordinator in the hello; one listener
	// serves every coordinator connection of the process. Disabling the
	// cache (CacheBytes < 0) disables the peer plane too — a worker with
	// nothing resident has nothing to serve.
	PeerListen string
	// PeerFetchTimeout bounds one peer fetch (dial + transfer); a fetch
	// that exceeds it degrades into a Miss and the coordinator re-sends the
	// value. Default 5s.
	PeerFetchTimeout time.Duration
	// Log receives human-readable progress lines; nil discards them.
	Log io.Writer
}

// DefaultCacheBytes is the future-cache bound applied when WorkerConfig
// leaves CacheBytes zero: large enough to hold every block of the
// experiment workloads, small enough to be irrelevant next to the data
// itself.
const DefaultCacheBytes = 256 << 20

// withDefaults fills the zero fields (Slots 1, DefaultCacheBytes, io.Discard).
func (cfg WorkerConfig) withDefaults() WorkerConfig {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	return cfg
}

// Serve runs the worker loop on an accepted listener until the listener
// closes: accept coordinator connections, send the handshake, execute
// registered functions, reply. Each connection is independent (a worker can
// serve several coordinators) and owns a private future cache — the task-id
// namespace is per-coordinator; within a connection requests run
// concurrently, bounded by Slots.
func Serve(l net.Listener, cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(cfg.Log, "worker: pid %d serving %d registered functions on %s (%d slots, %d MB cache)\n",
		os.Getpid(), len(Names()), l.Addr(), cfg.Slots, cfg.CacheBytes>>20)
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			if err := serveCoordinator(conn, "", cfg); err != nil {
				fmt.Fprintf(cfg.Log, "worker: handshake: %v\n", err)
			}
		}()
	}
}

// connPlane is one coordinator connection's data-plane state: the private
// future cache plus, when the peer plane is on, the peer-serving store
// registered under this connection's fresh token and the fetcher that pulls
// PeerRefs from other workers. store and fetcher are nil when peer
// transfers are disabled (PeerListen "off", cache disabled, or the peer
// bind failed) — the connection then advertises no PeerAddr and the
// coordinator routes all values through itself.
type connPlane struct {
	cache    *futureCache
	peerAddr string
	peerTok  string
	store    *peerStore
	fetcher  *peerFetcher
}

func newConnPlane(cfg WorkerConfig) *connPlane {
	p := &connPlane{cache: newFutureCache(cfg.CacheBytes)}
	if cfg.PeerListen == "off" || cfg.CacheBytes <= 0 {
		return p
	}
	addr, tok, store := registerPeerStore(p.cache, cfg.PeerListen, cfg.Log)
	if addr == "" {
		return p
	}
	p.peerAddr, p.peerTok, p.store = addr, tok, store
	p.fetcher = newPeerFetcher(cfg.PeerFetchTimeout)
	return p
}

// close retires the connection's peer-plane state: the token stops
// resolving (the stale-session guard) and the fetch links drop.
func (p *connPlane) close() {
	deregisterPeerStore(p.peerTok)
	if p.fetcher != nil {
		p.fetcher.close()
	}
}

// serveCoordinator is the worker side of one coordinator connection, accepted
// (Serve, empty token) or dialed (JoinCoordinator, the coordinator's join
// token): send the hello, then read request frames, execute them concurrently
// (bounded by cfg.Slots; a frame's requests run in order on its one slot,
// each resolved against the connection's private future cache and peer
// fetcher) and reply in completion order; pulls are answered beside the slots
// and forget frames applied to the cache as they arrive. cfg has its
// defaults applied. It closes conn and returns nil when the coordinator
// closes the connection or sends a frame that does not decode, an error
// when the hello could not be sent.
//
// The worker caps the kernel layer at par.SetLimit(1): its parallelism
// budget is Slots concurrent *bodies*, matching the contract the runtime's
// in-process pool follows (DESIGN.md, "The kernel layer").
func serveCoordinator(conn net.Conn, token string, cfg WorkerConfig) error {
	defer conn.Close()
	par.SetLimit(1)
	plane := newConnPlane(cfg)
	defer plane.close()
	l := newLink(conn)
	h := &hello{Proto: protoVersion, Pid: os.Getpid(), Slots: cfg.Slots, Token: token,
		PeerAddr: plane.peerAddr, PeerToken: plane.peerTok, Caches: cfg.CacheBytes > 0}
	if _, err := l.send(h); err != nil {
		return err
	}
	sem := make(chan struct{}, cfg.Slots)
	var fg forget
	for {
		req, pl := new(request), new(pull)
		which, _, err := l.recvAny(req, pl, &fg)
		if err != nil {
			if err != io.EOF {
				fmt.Fprintf(cfg.Log, "worker: connection closed: %v\n", err)
			}
			return nil
		}
		switch which {
		case 1:
			go answerPull(l, pl, plane.cache) // beside the slots: a pull never waits for a body
			continue
		case 2:
			plane.cache.forget(fg.Sessions) // inline, no slot, no reply
			continue
		}
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			resp := handle(req, plane)
			for i := range req.Chain {
				resp.Chain = append(resp.Chain, handle(&req.Chain[i], plane))
			}
			// Eviction reports (and peer byte deltas) ride on whichever
			// response is next; each is drained exactly once, so the
			// coordinator's sums are exact however responses interleave.
			resp.Evicted = plane.cache.drainEvicted()
			resp.CacheBytes = plane.cache.occupancy()
			if plane.store != nil {
				s, r := plane.store.drainBytes()
				resp.PeerSent += s
				resp.PeerRecv += r
			}
			if plane.fetcher != nil {
				s, r := plane.fetcher.drainBytes()
				resp.PeerSent += s
				resp.PeerRecv += r
			}
			_, err := l.send(&resp)
			if errors.Is(err, errEncode) {
				// An output has no wire form. Nothing was written, so say so
				// in an error reply — with the bookkeeping intact — rather
				// than leave the attempt waiting for a response.
				resp.each(func(_ int, m *response) { m.Vals, m.Err = nil, fmt.Sprintf("%s: %v", req.Name, err) })
				_, err = l.send(&resp)
			}
			if err != nil {
				fmt.Fprintf(cfg.Log, "worker: replying to %s (req %d): %v\n", req.Name, req.ID, err)
			}
		}()
	}
}

// answerPull replies to p with what the cache holds of its refs. Nothing but
// values and misses rides on the reply: eviction reports and byte deltas wait
// for the next task response.
func answerPull(l *link, p *pull, cache *futureCache) {
	resp := response{ID: p.ID, Vals: make([]any, len(p.Refs))}
	for i, ref := range p.Refs {
		var ok bool
		if resp.Vals[i], ok = cache.get(ref); !ok {
			resp.Miss = append(resp.Miss, ref)
		}
	}
	if _, err := l.send(&resp); errors.Is(err, errEncode) {
		// A held output with no wire form: as good as gone, its rerun says why.
		_, _ = l.send(&response{ID: p.ID, Vals: make([]any, len(p.Refs)), Miss: p.Refs})
	}
}

// JoinCoordinator dials a coordinator's fleet listen address (see
// Remote.ListenForWorkers) and serves registered functions over the
// connection until it closes: the hello doubles as the registration
// request, with token as the join credential. This is how a restarted
// worker re-admits itself mid-run — it comes back as a brand-new member
// with a fresh id and an empty cache.
func JoinCoordinator(addr, token string, cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("exec: joining coordinator at %s: %w", addr, err)
	}
	fmt.Fprintf(cfg.Log, "worker: pid %d joined coordinator %s (%d slots, %d MB cache)\n",
		os.Getpid(), addr, cfg.Slots, cfg.CacheBytes>>20)
	if err := serveCoordinator(conn, token, cfg); err != nil {
		return fmt.Errorf("exec: registering with coordinator at %s: %w", addr, err)
	}
	return nil
}

// resolveCounts aggregates the resolution outcomes of one request: cache
// hits/misses plus the peer fetches performed and their payload volume
// (sizeOfValue units, the coordinator's RefValueBytes/PeerValueBytes
// partition).
type resolveCounts struct {
	hits, misses int
	peerFetched  int
	peerValBytes int64
}

// resolveArgs walks the request arguments replacing wire references with
// values: a ValueRef resolves to the resident value itself, a RefValue
// contributes its decoded value and makes it resident under its identity,
// and a PeerRef is pulled from the named holder over the peer link (all of
// a request's pulls at once, see prefetch) — the fetched value becomes
// resident like a RefValue replica, so the next co-located consumer
// resolves it locally. Nothing is copied: what comes back may be shared
// with the cache and must only be read (handle clones the declared
// exceptions). Nested references inside a []any argument (the
// wire form of a []*Future parameter) resolve the same way.
//
// When any ValueRef misses — or a PeerRef cannot be fetched (holder gone,
// wrong token, timeout, peer plane off) — resolution fails as a whole: the
// returned miss list is non-empty, and the caller must not run the body.
// Stored insertions performed before the miss was discovered are still real
// (and still reported) — the resent request will find them resident.
func resolveArgs(args []any, plane *connPlane) (resolved []any, miss []ValueRef, stored []StoredRef, rc resolveCounts) {
	cache := plane.cache
	fetched := prefetch(args, plane)
	var resolveOne func(v any) any
	resolveOne = func(v any) any {
		switch x := v.(type) {
		case ValueRef:
			if val, ok := cache.get(x); ok {
				rc.hits++
				return val
			}
			rc.misses++
			miss = append(miss, x)
			return nil
		case RefValue:
			if n, ok := cache.put(x.Ref, x.Val); ok {
				stored = append(stored, StoredRef{Ref: x.Ref, Bytes: n})
			}
			return x.Val
		case PeerRef:
			// The coordinator believed the value resident elsewhere — but a
			// local copy may exist anyway (an earlier fetch or replica the
			// coordinator's advisory map missed); prefer it.
			if val, ok := cache.get(x.Ref); ok {
				rc.hits++
				return val
			}
			if val, ok := fetched[x.Ref]; ok {
				rc.peerFetched++
				rc.peerValBytes += sizeOfValue(val)
				if n, ok := cache.put(x.Ref, val); ok {
					stored = append(stored, StoredRef{Ref: x.Ref, Bytes: n})
				}
				return val
			}
			// Fetch failed (or no fetcher): degrade into an ordinary Miss —
			// the coordinator re-sends with the value inlined.
			rc.misses++
			miss = append(miss, x.Ref)
			return nil
		case []any:
			out := make([]any, len(x))
			for i, e := range x {
				out[i] = resolveOne(e)
			}
			return out
		default:
			return v
		}
	}
	resolved = make([]any, len(args))
	for i, a := range args {
		resolved[i] = resolveOne(a)
	}
	return resolved, miss, stored, rc
}

// prefetch pulls every PeerRef among args that is not resident yet, all at
// once over the holders' multiplexed links: a request naming forty trees
// waits one round trip, not forty. It returns what arrived; a ref that is
// absent failed (or there is no fetcher) and resolves as a Miss.
func prefetch(args []any, plane *connPlane) map[ValueRef]any {
	if plane.fetcher == nil {
		return nil
	}
	var want []PeerRef
	var collect func(v any)
	collect = func(v any) {
		switch x := v.(type) {
		case PeerRef:
			if _, ok := plane.cache.get(x.Ref); !ok {
				want = append(want, x)
			}
		case []any:
			for _, e := range x {
				collect(e)
			}
		}
	}
	collect(args)
	if len(want) == 0 {
		return nil
	}
	fetched := make(map[ValueRef]any, len(want))
	var mu sync.Mutex
	var wg sync.WaitGroup
	fetch := func(x PeerRef) {
		defer wg.Done()
		if val, err := plane.fetcher.fetch(x.Addr, x.Token, x.Ref); err == nil {
			mu.Lock()
			fetched[x.Ref] = val
			mu.Unlock()
		}
	}
	wg.Add(len(want))
	for _, x := range want[1:] {
		go fetch(x)
	}
	fetch(want[0]) // the common case, one reference, spawns nothing
	wg.Wait()
	return fetched
}

// holdsRef reports whether a wire argument is, or contains, a reference
// form — that is, whether its resolved value may be resident in the cache.
func holdsRef(v any) bool {
	switch x := v.(type) {
	case ValueRef, RefValue, PeerRef:
		return true
	case []any:
		for _, e := range x {
			if holdsRef(e) {
				return true
			}
		}
	}
	return false
}

// handle executes one request with panic containment: a panicking body
// fails its request, not the worker process, mirroring the in-process
// runtime's panic→error conversion. Reference arguments are resolved
// against the connection's future cache (and peer fetcher) first; an
// unresolvable reference turns the request into a Miss reply without
// running the body. The outputs are moved into the cache, not copied: the
// body is done with them and everyone after it only reads — and kept from
// the reply altogether when the request allows it (Hold) and all went in.
func handle(req *request, plane *connPlane) (resp response) {
	cache := plane.cache
	resp.ID = req.ID
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			resp.Vals = nil
			resp.Err = fmt.Sprintf("%s: panic: %v", req.Name, r)
		}
		resp.BodyNs = int64(time.Since(start))
	}()
	args, miss, stored, rc := resolveArgs(req.Args, plane)
	resp.Stored = stored
	resp.RefHits = rc.hits
	resp.RefMisses = rc.misses
	resp.PeerFetched = rc.peerFetched
	resp.PeerValBytes = rc.peerValBytes
	if len(miss) > 0 {
		resp.Miss = miss
		return resp
	}
	// The one clone on the data path: an argument the body declared it
	// writes to, when it arrived by reference and so may be resident. A
	// plain value was decoded for this request alone and is already private.
	for _, i := range InPlaceArgs(req.Name) {
		if i >= len(args) || !holdsRef(req.Args[i]) {
			continue
		}
		cl, ok := cloneValue(args[i])
		if !ok {
			resp.Err = fmt.Sprintf("%s: in-place argument %d (%T) is resident and has no clone path", req.Name, i, args[i])
			return resp
		}
		args[i] = cl
	}
	vals, err := Invoke(req.Name, req.NOut, args)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	kept := 0
	if req.Store {
		for i, v := range vals {
			ref := ValueRef{Session: req.Session, Task: req.Task, Out: i}
			if n, ok := cache.put(ref, v); ok {
				resp.Stored = append(resp.Stored, StoredRef{Ref: ref, Bytes: n})
				kept++
			}
		}
	}
	if !req.Hold || kept < len(vals) {
		resp.Vals = vals // else they stay here, every one, until someone pulls
	}
	return resp
}

// Env vars of the loopback re-exec protocol (see SpawnLoopback): when
// workerEnvListen is set, MaybeWorkerMain turns the current process into a
// listening worker instead of running its normal main.
const (
	workerEnvListen  = "TASKML_EXEC_WORKER"
	workerEnvSlots   = "TASKML_EXEC_SLOTS"
	workerEnvCacheMB = "TASKML_EXEC_CACHE_MB"
	// workerReadyPrefix is the machine-readable first stdout line carrying
	// the bound address back to the spawning coordinator.
	workerReadyPrefix = "TASKML_WORKER_LISTENING "
)

// MaybeWorkerMain is the loopback re-exec hook: binaries that can act as
// loopback workers (the cmd tools, test binaries via TestMain) call it
// first thing. When TASKML_EXEC_WORKER is not set it returns immediately.
// Otherwise the process binds that address, prints the bound address on
// stdout for the spawning coordinator, serves registered functions until
// killed, and never returns.
func MaybeWorkerMain() {
	addr := os.Getenv(workerEnvListen)
	if addr == "" {
		return
	}
	// Unset or malformed values read as 0, which Serve turns into its
	// defaults; a negative cache size disables caching, as on the flags.
	slots, _ := strconv.Atoi(os.Getenv(workerEnvSlots))
	cacheMB, _ := strconv.Atoi(os.Getenv(workerEnvCacheMB))
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: listen %s: %v\n", addr, err)
		os.Exit(1)
	}
	fmt.Printf("%s%s\n", workerReadyPrefix, l.Addr())
	// A loopback fleet's peer links ride the interface its coordinator links do.
	err = Serve(l, WorkerConfig{Slots: slots, CacheBytes: int64(cacheMB) << 20, PeerListen: "127.0.0.1:0", Log: os.Stderr})
	fmt.Fprintf(os.Stderr, "worker: %v\n", err)
	os.Exit(1)
}
