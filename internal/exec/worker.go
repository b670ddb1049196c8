package exec

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
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

// serveCoordinator is the worker side of one coordinator connection, accepted
// (Serve, empty token) or dialed (JoinCoordinator, the coordinator's join
// token): send the hello, then read request frames, execute them concurrently
// (bounded by cfg.Slots; a frame's requests run in order on its one slot,
// each resolved against the connection's private future cache) and reply in
// completion order; pulls are answered beside the slots and forget frames
// applied to the cache as they arrive. cfg has its defaults applied. It closes conn and returns nil when the coordinator
// closes the connection or sends a frame that does not decode, an error
// when the hello could not be sent.
//
// The connection's Slots are the parallelism budget of its bodies and of
// their kernels alike: while it is served they are lent to par, so a kernel
// region inside a body borrows the slots no request holds and a one-slot
// worker's kernels run serially (DESIGN.md, "The kernel layer"). Nothing
// else of the process is capped.
func serveCoordinator(conn net.Conn, token string, cfg WorkerConfig) error {
	defer conn.Close()
	sem := make(par.Slots, cfg.Slots)
	defer par.Lend(sem)()
	cache := newFutureCache(cfg.CacheBytes)
	l := newLink(conn)
	h := &hello{Proto: protoVersion, Pid: os.Getpid(), Slots: cfg.Slots, Token: token, Caches: cfg.CacheBytes > 0}
	if err := l.send(h); err != nil {
		return err
	}
	var fg forget
	for {
		req, pl := new(request), new(pull)
		which, err := l.recvAny(req, pl, &fg)
		if err != nil {
			if err != io.EOF {
				fmt.Fprintf(cfg.Log, "worker: connection closed: %v\n", err)
			}
			return nil
		}
		switch which {
		case 1:
			go answerPull(l, pl, cache) // beside the slots: a pull never waits for a body
			continue
		case 2:
			cache.forget(fg.Sessions) // inline, no slot, no reply
			continue
		}
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			resp := handle(req, cache)
			for i := range req.Chain {
				resp.Chain = append(resp.Chain, handle(&req.Chain[i], cache))
			}
			// Eviction reports ride on whichever response is next; each is
			// drained exactly once, so the coordinator's view is exact however
			// responses interleave.
			resp.Evicted = cache.drainEvicted()
			resp.CacheBytes = cache.occupancy()
			err := l.send(&resp)
			if errors.Is(err, errEncode) {
				// An output has no wire form. Nothing was written, so say so
				// in an error reply — with the bookkeeping intact — rather
				// than leave the attempt waiting for a response.
				resp.each(func(_ int, m *response) { m.Vals, m.Err = nil, fmt.Sprintf("%s: %v", req.Name, err) })
				err = l.send(&resp)
			}
			if err != nil {
				fmt.Fprintf(cfg.Log, "worker: replying to %s (req %d): %v\n", req.Name, req.ID, err)
			}
		}()
	}
}

// answerPull replies to p with what the cache holds of its refs. Nothing but
// values and misses rides on the reply: eviction reports wait for the next
// task response.
func answerPull(l *link, p *pull, cache *futureCache) {
	resp := response{ID: p.ID, Vals: make([]any, len(p.Refs))}
	for i, ref := range p.Refs {
		var ok bool
		if resp.Vals[i], ok = cache.get(ref); !ok {
			resp.Miss = append(resp.Miss, ref)
		}
	}
	if err := l.send(&resp); errors.Is(err, errEncode) {
		// A held output with no wire form: as good as gone, its rerun says why.
		_ = l.send(&response{ID: p.ID, Vals: make([]any, len(p.Refs)), Miss: p.Refs})
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

// resolveArgs walks the request arguments replacing wire references with
// values: a ValueRef resolves to the resident value itself, and a RefValue
// contributes its decoded value and makes it resident under its identity, so
// the next co-located consumer resolves it locally. Nothing is copied: what
// comes back may be shared with the cache and must only be read, as every
// registered body does. Nested references inside a []any argument
// (the wire form of a []*Future parameter) resolve the same way.
//
// When any ValueRef misses, resolution fails as a whole: the returned miss
// list is non-empty, and the caller must not run the body. Stored insertions
// performed before the miss was discovered are still real (and still
// reported) — the resent request will find them resident.
func resolveArgs(args []any, cache *futureCache) (resolved []any, miss []ValueRef, stored []StoredRef, hits int) {
	var resolveOne func(v any) any
	resolveOne = func(v any) any {
		switch x := v.(type) {
		case ValueRef:
			if val, ok := cache.get(x); ok {
				hits++
				return val
			}
			miss = append(miss, x)
			return nil
		case RefValue:
			if n, ok := cache.put(x.Ref, x.Val); ok {
				stored = append(stored, StoredRef{Ref: x.Ref, Bytes: n})
			}
			return x.Val
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
	return resolved, miss, stored, hits
}

// handle executes one request with panic containment: a panicking body
// fails its request, not the worker process, mirroring the in-process
// runtime's panic→error conversion. Reference arguments are resolved
// against the connection's future cache first; an unresolvable reference
// turns the request into a Miss reply without running the body. The outputs
// are moved into the cache, not copied: the body is done with them and
// everyone after it only reads — and kept from the reply altogether when the
// request allows it (Hold) and all went in.
func handle(req *request, cache *futureCache) (resp response) {
	resp.ID = req.ID
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			resp.Vals = nil
			resp.Err = fmt.Sprintf("%s: panic: %v", req.Name, r)
		}
		resp.BodyNs = int64(time.Since(start))
	}()
	args, miss, stored, hits := resolveArgs(req.Args, cache)
	resp.Stored = stored
	resp.RefHits = hits
	resp.RefMisses = len(miss)
	if len(miss) > 0 {
		resp.Miss = miss
		return resp
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
	err = Serve(l, WorkerConfig{Slots: slots, CacheBytes: int64(cacheMB) << 20, Log: os.Stderr})
	fmt.Fprintf(os.Stderr, "worker: %v\n", err)
	os.Exit(1)
}
