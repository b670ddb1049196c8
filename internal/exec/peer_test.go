package exec

// White-box tests for the peer-to-peer data plane (peer.go and the
// coordinator glue in remote.go): the token-scoped peer server, the
// single-flight fetcher and its failure modes (dead holder, stale token,
// timeout, connection lost mid-fetch), PeerRef selection in buildWireArgs,
// the sole-holder placement discount, and the end-to-end fallback ladder
// driven through real loopback workers with deliberately poisoned holder
// coordinates.

import (
	"net"
	"sync"
	"testing"
	"time"

	"taskml/internal/mat"
)

// newTestPeerStore registers a store on the process peer listener and
// arranges its teardown.
func newTestPeerStore(t *testing.T, cache *futureCache) (addr, token string, store *peerStore) {
	t.Helper()
	addr, token, store = registerPeerStore(cache, "127.0.0.1:0", nil)
	if addr == "" {
		t.Fatal("registerPeerStore failed to open the process peer listener")
	}
	t.Cleanup(func() { deregisterPeerStore(token) })
	return addr, token, store
}

// TestPeerFetchRoundTrip: a fetch returns the resident value bit-exactly as
// a decoded copy of its own, reuses one link per holder, and attributes wire
// bytes on both sides.
func TestPeerFetchRoundTrip(t *testing.T) {
	cache := newFutureCache(1 << 20)
	val := []float64{1.5, 2.25, 3.125}
	if _, ok := cache.put(ref(1), val); !ok {
		t.Fatal("put rejected")
	}
	addr, token, store := newTestPeerStore(t, cache)

	f := newPeerFetcher(0)
	defer f.close()
	got, err := f.fetch(addr, token, ref(1))
	if err != nil {
		t.Fatal(err)
	}
	gs := got.([]float64)
	for i, want := range val {
		if gs[i] != want {
			t.Fatalf("fetched[%d] = %x, want %x (not bit-identical)", i, gs[i], want)
		}
	}
	// The fetched value crossed a socket: it shares nothing with the
	// holder's resident value.
	gs[0] = 99
	if resident, _ := cache.get(ref(1)); resident.([]float64)[0] != 1.5 {
		t.Fatal("fetched value aliases the holder's resident copy")
	}
	if n := store.served.Load(); n != 1 {
		t.Fatalf("served = %d, want 1", n)
	}

	// A second ref over the same holder reuses the cached link.
	cache.put(ref(2), []float64{7})
	if _, err := f.fetch(addr, token, ref(2)); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	links := len(f.links)
	f.mu.Unlock()
	if links != 1 {
		t.Fatalf("links = %d, want 1 (one multiplexed link per holder)", links)
	}

	// Both ends accounted the same wire bytes: what the fetcher sent the
	// store received, and vice versa. The store can only count a reply's
	// bytes after writing it, so it may trail the fetcher briefly.
	fs, fr := f.drainBytes()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if store.recv.Load() == fs && store.sent.Load() == fr {
			break
		}
	}
	ss, sr := store.drainBytes()
	if fs == 0 || fr == 0 || fs != sr || fr != ss {
		t.Fatalf("byte attribution: fetcher sent/recv %d/%d, store sent/recv %d/%d — want mirrored nonzero totals", fs, fr, ss, sr)
	}
}

// TestPeerFetchSingleFlight: concurrent fetches of one ref share a single
// wire transfer and its single decoded value — nobody is handed a copy,
// because nobody may write to it.
func TestPeerFetchSingleFlight(t *testing.T) {
	cache := newFutureCache(1 << 20)
	cache.put(ref(1), []float64{10, 20})
	addr, token, store := newTestPeerStore(t, cache)

	f := newPeerFetcher(0)
	defer f.close()
	// Install the in-flight call by hand, exactly as fetch's leader path
	// does, so every concurrent fetch below deterministically joins it.
	k := fetchKey{addr: addr, token: token, ref: ref(1)}
	c := &fetchCall{done: make(chan struct{})}
	f.mu.Lock()
	f.calls[k] = c
	f.mu.Unlock()

	const consumers = 4
	results := make(chan []float64, consumers)
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.fetch(addr, token, ref(1))
			if err != nil {
				t.Errorf("joined fetch: %v", err)
				return
			}
			results <- v.([]float64)
		}()
	}
	// Resolve the shared call with one real wire transfer.
	c.val, c.err = f.fetchOne(addr, token, ref(1))
	f.mu.Lock()
	delete(f.calls, k)
	f.mu.Unlock()
	close(c.done)
	wg.Wait()
	close(results)

	if n := store.served.Load(); n != 1 {
		t.Fatalf("served = %d, want 1 (single-flight must collapse duplicates)", n)
	}
	var all [][]float64
	for v := range results {
		if v[0] != 10 || v[1] != 20 {
			t.Fatalf("joined consumer got %v, want [10 20]", v)
		}
		all = append(all, v)
	}
	if len(all) != consumers {
		t.Fatalf("%d consumers returned, want %d", len(all), consumers)
	}
	for _, v := range all[1:] {
		if &v[0] != &all[0][0] {
			t.Fatal("joined consumers hold different copies; one transfer must decode one value")
		}
	}
}

// TestPeerPrefetchOverlaps: a request naming forty values on one holder (an
// rf_predict and its forty trees) has all forty fetches in flight at once. The
// holder here answers nothing until it has read every request, so fetching
// one round trip at a time would stop at the first and time out; the request
// still counts forty peer fetches and forty insertions, and one failed fetch
// among forty is still the whole request's Miss, with the others kept.
func TestPeerPrefetchOverlaps(t *testing.T) {
	const n, gone = 40, 1000 // task gone is the value the holder no longer has
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		lk := newLink(conn)
		var h peerHello
		if _, err := lk.recv(&h); err != nil {
			return
		}
		for {
			reqs := make([]peerRequest, n)
			for i := range reqs {
				if _, err := lk.recv(&reqs[i]); err != nil {
					return
				}
			}
			for _, req := range reqs {
				_, _ = lk.send(&peerResponse{ID: req.ID, OK: req.Ref.Task != gone, Val: []float64{float64(req.Ref.Task)}})
			}
		}
	}()

	plane := &connPlane{cache: newFutureCache(1 << 20), fetcher: newPeerFetcher(3 * time.Second)}
	defer plane.fetcher.close()
	resolve := func(first int, missing bool) (miss []ValueRef, stored []StoredRef, rc resolveCounts) {
		t.Helper()
		trees := make([]any, n)
		for i := range trees {
			trees[i] = PeerRef{Ref: ref(first + i), Addr: l.Addr().String(), Token: "tok"}
		}
		if missing {
			trees[7] = PeerRef{Ref: ref(gone), Addr: l.Addr().String(), Token: "tok"}
		}
		start := time.Now()
		resolved, miss, stored, rc := resolveArgs([]any{1.5, trees}, plane)
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("resolution took %v: the fetches did not overlap", el)
		}
		for i, v := range resolved[1].([]any) {
			if missing && i == 7 {
				continue
			}
			if f := v.([]float64); f[0] != float64(first+i) {
				t.Fatalf("tree %d resolved to %v", first+i, f)
			}
			if _, ok := plane.cache.get(ref(first + i)); !ok {
				t.Fatalf("tree %d was fetched and not made resident", first+i)
			}
		}
		return miss, stored, rc
	}

	miss, stored, rc := resolve(0, false)
	if len(miss) != 0 || rc.peerFetched != n || len(stored) != n || rc.peerValBytes != n*sizeOfValue([]float64{0}) {
		t.Fatalf("miss %v, fetched %d (%d bytes), stored %d: want %d fetched and stored, none missed", miss, rc.peerFetched, rc.peerValBytes, len(stored), n)
	}
	miss, stored, rc = resolve(n, true)
	if len(miss) != 1 || miss[0] != ref(gone) || rc.misses != 1 {
		t.Fatalf("miss = %v (%d counted), want exactly the value the holder lacks", miss, rc.misses)
	}
	if rc.peerFetched != n-1 || len(stored) != n-1 {
		t.Fatalf("fetched %d, stored %d, want %d each: what arrived beside the miss is kept", rc.peerFetched, len(stored), n-1)
	}
}

// TestPeerFetchFailureModes: every way a fetch can fail yields an error (the
// Miss trigger), never a wrong or stale value.
func TestPeerFetchFailureModes(t *testing.T) {
	cache := newFutureCache(1 << 20)
	cache.put(ref(1), []float64{1})
	addr, token, _ := newTestPeerStore(t, cache)

	f := newPeerFetcher(0)
	defer f.close()

	// Wrong token: the listener answers, but the token resolves no store —
	// exactly what a PeerRef minted against a restarted worker sees.
	if _, err := f.fetch(addr, "stale-token", ref(1)); err == nil {
		t.Fatal("fetch with a stale token must fail, not serve another connection's data")
	}
	// Value the holder does not have.
	if _, err := f.fetch(addr, token, ref(99)); err == nil {
		t.Fatal("fetch of a non-resident ref must fail")
	}
	// Deregistered token: the connection-closed guard.
	addr2, token2, _ := newTestPeerStore(t, cache)
	deregisterPeerStore(token2)
	if _, err := f.fetch(addr2, token2, ref(1)); err == nil {
		t.Fatal("fetch under a deregistered token must fail")
	}
	// Poisoned address: nothing listens there.
	fq := newPeerFetcher(500 * time.Millisecond)
	defer fq.close()
	if _, err := fq.fetch("127.0.0.1:1", token, ref(1)); err == nil {
		t.Fatal("fetch from a dead address must fail")
	}
	// The valid path still works after all those failures.
	if v, err := f.fetch(addr, token, ref(1)); err != nil || v.([]float64)[0] != 1 {
		t.Fatalf("valid fetch after failures = %v, %v", v, err)
	}
}

// TestPeerFetchHolderDiesMidFetch: a holder that vanishes between accepting
// the request and answering it (the SIGKILL window) fails the fetch with a
// connection-lost error; a holder that hangs trips the fetch timeout. Both
// degrade into Misses on the worker, never hangs.
func TestPeerFetchHolderDiesMidFetch(t *testing.T) {
	// A fake holder that reads the hello and first request, then either
	// drops the connection or goes silent.
	serve := func(t *testing.T, hang bool) string {
		t.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			l := newLink(conn)
			var h peerHello
			var req peerRequest
			_, _ = l.recv(&h)
			_, _ = l.recv(&req)
			if hang {
				time.Sleep(5 * time.Second) // past the fetcher's timeout
			}
			conn.Close()
		}()
		return l.Addr().String()
	}

	f := newPeerFetcher(300 * time.Millisecond)
	defer f.close()
	start := time.Now()
	if _, err := f.fetch(serve(t, false), "tok", ref(1)); err == nil {
		t.Fatal("fetch must fail when the holder dies mid-fetch")
	}
	if _, err := f.fetch(serve(t, true), "tok", ref(1)); err == nil {
		t.Fatal("fetch from a hung holder must time out")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("failure paths took %v; a dead holder must cost a timeout, not a hang", elapsed)
	}
}

// TestPeerWireArgsSelection pins buildWireArgs' wire-form ladder: resident on
// the target → ValueRef, resident on an alive peer-capable holder → PeerRef,
// anything else (draining holder, peerless endpoint, inlineAll) → RefValue —
// with refValueBytes counting exactly the RefValues some alive worker could
// have served.
func TestPeerWireArgsSelection(t *testing.T) {
	rf := ref(1)
	val := floats(4) // 40 accounted bytes
	mkReq := func() *Request {
		return &Request{Name: "x", NOut: 1, Args: []any{val},
			Session: 1, TaskID: 5, ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: rf}}}
	}
	mkw := func(id string, state workerState, peerAddr string) *workerConn {
		tok := ""
		if peerAddr != "" {
			tok = "tok-" + id
		}
		return &workerConn{id: id, state: state, slots: 1,
			peerAddr: peerAddr, peerTok: tok, resident: map[ValueRef]int64{}}
	}

	cases := []struct {
		name       string
		inlineAll  bool
		targetAddr string      // target's peer listener ("" = peerless)
		holder     workerState // holder state; wsDead = ref not resident anywhere
		holderAddr string
		wantForm   string
		wantRVB    int64 // refValueBytes delta
	}{
		{name: "peer-ref", targetAddr: "t:1", holder: wsAlive, holderAddr: "h:1", wantForm: "PeerRef"},
		{name: "holder-draining", targetAddr: "t:1", holder: wsDraining, holderAddr: "h:1", wantForm: "RefValue"},
		{name: "holder-peerless", targetAddr: "t:1", holder: wsAlive, holderAddr: "", wantForm: "RefValue", wantRVB: 40},
		{name: "target-peerless", targetAddr: "", holder: wsAlive, holderAddr: "h:1", wantForm: "RefValue", wantRVB: 40},
		{name: "inline-all", inlineAll: true, targetAddr: "t:1", holder: wsAlive, holderAddr: "h:1", wantForm: "RefValue", wantRVB: 40},
		{name: "cold", targetAddr: "t:1", holder: wsDead, holderAddr: "h:1", wantForm: "RefValue"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRemote(0)
			w := mkw("w0", wsAlive, tc.targetAddr)
			h := mkw("w1", tc.holder, tc.holderAddr)
			if tc.holder != wsDead {
				h.resident[rf] = 40
			}
			r.workers = []*workerConn{w, h}

			peerSent := map[ValueRef]bool{}
			out, _ := r.buildWireArgs(w, mkReq(), tc.inlineAll, peerSent)
			switch tc.wantForm {
			case "PeerRef":
				pr, ok := out[0].(PeerRef)
				if !ok || pr.Ref != rf || pr.Addr != h.peerAddr || pr.Token != h.peerTok {
					t.Fatalf("wire form = %#v, want PeerRef to %s", out[0], h.peerAddr)
				}
				if !peerSent[rf] {
					t.Fatal("peerSent must name the ref sent as a PeerRef")
				}
			case "RefValue":
				if _, ok := out[0].(RefValue); !ok {
					t.Fatalf("wire form = %T, want RefValue", out[0])
				}
				if sent, ok := peerSent[rf]; !ok || sent {
					t.Fatalf("peerSent = %v, want the ref named as shipped by value", peerSent)
				}
			}
			if got := r.refValueBytes.Load(); got != tc.wantRVB {
				t.Fatalf("refValueBytes = %d, want %d", got, tc.wantRVB)
			}
		})
	}

	// Resident on the target beats every peer consideration.
	r := newRemote(0)
	w := mkw("w0", wsAlive, "t:1")
	w.resident[rf] = 40
	h := mkw("w1", wsAlive, "h:1")
	h.resident[rf] = 40
	r.workers = []*workerConn{w, h}
	peerSent := map[ValueRef]bool{}
	out, _ := r.buildWireArgs(w, mkReq(), false, peerSent)
	if _, ok := out[0].(ValueRef); !ok || len(peerSent) != 0 {
		t.Fatalf("resident-on-target wire form = %T (peerSent %v), want bare ValueRef", out[0], peerSent)
	}
}

// TestPeerPlacementReplicaDiscount: a candidate holding the sole alive copy
// of a ref outscores one holding a larger but replicated ref — replicas are
// cheap to reach over peer links, sole copies are not.
func TestPeerPlacementReplicaDiscount(t *testing.T) {
	refA, refB := ref(1), ref(2)
	r := newRemote(0)
	mkw := func(id string, res map[ValueRef]int64) *workerConn {
		return &workerConn{id: id, state: wsAlive, slots: 1,
			peerAddr: id + ":1", peerTok: "tok-" + id, resident: res}
	}
	// w0 is refA's sole holder (100 B); refB (150 B) is replicated on w1 and
	// w2.
	r.workers = []*workerConn{
		mkw("w0", map[ValueRef]int64{refA: 100}),
		mkw("w1", map[ValueRef]int64{refB: 150}),
		mkw("w2", map[ValueRef]int64{refB: 150}),
	}
	w, err := r.acquire([]ValueRef{refA, refB})
	if err != nil {
		t.Fatal(err)
	}
	if w.id != "w0" {
		t.Fatalf("placement chose %s, want w0 (sole copy of refA counts double)", w.id)
	}
}

// testPeerMatrix returns a deterministic 64×64 input and its expected
// doubled result.
func testPeerMatrix() (*mat.Dense, *mat.Dense) {
	m := mat.New(64, 64)
	for i := range m.Data {
		m.Data[i] = 0.1 * float64(i+1)
	}
	return m, mat.Scale(2.0, m)
}

// saturateWorker parks a sleeping body on the first-spawned worker (the
// deterministic tie-break target of anonymous dispatch) so the next
// placement must land elsewhere; the returned func waits for it to finish.
func saturateWorker(t *testing.T, r *Remote) func() {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := r.Execute("test_sleep_ms", 1, []any{800})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ws := r.Workers(); ws[0].Inflight == 1 {
			return func() {
				if err := <-done; err != nil {
					t.Fatalf("saturating sleep: %v", err)
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("saturating sleep never reached w0")
	return nil
}

// TestPeerTransferBetweenWorkers is the peer plane's end-to-end happy path
// over real worker processes: a value produced on one worker is consumed on
// the other, travels over the peer link (not the coordinator), lands
// bit-identically, and every counter partition holds at quiescence.
func TestPeerTransferBetweenWorkers(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 2, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	sess := NextSession()
	m, want := testPeerMatrix()
	_, producer, err := r.ExecuteTask(&Request{
		Name: "test_scale_mat", NOut: 1, Args: []any{m, 1.0},
		Session: sess, TaskID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := ValueRef{Session: sess, Task: 1, Out: 0}

	wait := saturateWorker(t, r)
	vals, consumer, err := r.ExecuteTask(&Request{
		Name: "test_scale_mat", NOut: 1, Args: []any{mat.Scale(1.0, m), 2.0},
		Session: sess, TaskID: 2,
		ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: out}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if consumer == producer {
		t.Fatalf("consumer landed on the saturated producer %s; the test needs a cross-worker placement", producer)
	}
	got := vals[0].(*mat.Dense)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Data[%d] = %x, want %x (peer transfer changed the value)", i, got.Data[i], want.Data[i])
		}
	}

	st := r.Stats()
	if st.PeerFetches < 1 {
		t.Fatalf("PeerFetches = %d, want >= 1 (the cross-worker argument must travel the peer link)", st.PeerFetches)
	}
	if st.PeerFallbacks != 0 || st.MissRetries != 0 {
		t.Fatalf("Stats = %+v, want a clean fetch with no fallbacks", st)
	}
	if st.PeerValueBytes == 0 || st.RefValueBytes != 0 {
		t.Fatalf("payload partition PeerValueBytes=%d RefValueBytes=%d, want all inter-worker payload on the peer link", st.PeerValueBytes, st.RefValueBytes)
	}
	// Exact peer-link accounting: at quiescence every peer byte written was
	// read, and the peer totals are disjoint from (not contained in) the
	// coordinator-link totals.
	if st.PeerBytesSent == 0 || st.PeerBytesSent != st.PeerBytesRecv {
		t.Fatalf("peer wire totals sent=%d recv=%d, want equal nonzero at quiescence", st.PeerBytesSent, st.PeerBytesRecv)
	}
	if st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("Stats = %+v, want outcome partition at quiescence", st)
	}

	// The fetch seeded the consumer's cache and reported residency: the
	// coordinator now sees the value on both workers.
	holders := 0
	for _, w := range r.Workers() {
		if w.ResidentBytes > 0 {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("%d workers hold residency after the peer fetch, want 2 (fetch seeds the consumer's cache)", holders)
	}
}

// TestPeerFallbackLadder drives every coordinator-visible peer failure
// through real workers: a poisoned holder address and a stale holder token
// (the restarted-worker guise) each degrade the PeerRef into a Miss, the
// coordinator re-sends values inlined, and the answer is bit-identical —
// one PeerFallback and one MissRetry per failure, never an error.
func TestPeerFallbackLadder(t *testing.T) {
	poison := []struct {
		name   string
		poison func(w *workerConn)
	}{
		{"poisoned-addr", func(w *workerConn) { w.peerAddr = "127.0.0.1:1" }},
		{"stale-token", func(w *workerConn) { w.peerTok = "tok-of-a-dead-connection" }},
	}
	for _, tc := range poison {
		t.Run(tc.name, func(t *testing.T) {
			r, err := SpawnLoopback(LoopbackConfig{Workers: 2, Slots: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			sess := NextSession()
			m, want := testPeerMatrix()
			_, _, err = r.ExecuteTask(&Request{
				Name: "test_scale_mat", NOut: 1, Args: []any{m, 1.0},
				Session: sess, TaskID: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			out := ValueRef{Session: sess, Task: 1, Out: 0}
			r.mu.Lock()
			tc.poison(r.workers[0])
			r.mu.Unlock()

			wait := saturateWorker(t, r)
			vals, _, err := r.ExecuteTask(&Request{
				Name: "test_scale_mat", NOut: 1, Args: []any{mat.Scale(1.0, m), 2.0},
				Session: sess, TaskID: 2,
				ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: out}},
			})
			if err != nil {
				t.Fatalf("the fallback ladder must absorb the poisoned holder: %v", err)
			}
			wait()
			got := vals[0].(*mat.Dense)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("Data[%d] = %x, want %x (fallback changed the value)", i, got.Data[i], want.Data[i])
				}
			}
			st := r.Stats()
			if st.PeerFallbacks != 1 || st.MissRetries != 1 {
				t.Fatalf("Stats = %+v, want exactly one PeerFallback and one MissRetry", st)
			}
			if st.PeerValueBytes != 0 {
				t.Fatalf("PeerValueBytes = %d, want 0 (the failed fetch must not count as peer payload)", st.PeerValueBytes)
			}
			if st.Dispatched != st.Completed+st.Failed {
				t.Fatalf("Stats = %+v, want outcome partition at quiescence", st)
			}
		})
	}
}

// TestPeerDisabledShipsThroughCoordinator: a member started with its peer
// listener off says so in its hello (no PeerAddr), and a value it needs from
// another worker re-ships through the coordinator (counted in RefValueBytes)
// while the peer counters stay zero.
func TestPeerDisabledShipsThroughCoordinator(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = Serve(l, WorkerConfig{Slots: 1, PeerListen: "off"}) }()
	if _, err := r.Join(l.Addr().String()); err != nil {
		t.Fatal(err)
	}

	sess := NextSession()
	m, want := testPeerMatrix()
	_, _, err = r.ExecuteTask(&Request{
		Name: "test_scale_mat", NOut: 1, Args: []any{m, 1.0},
		Session: sess, TaskID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := ValueRef{Session: sess, Task: 1, Out: 0}

	wait := saturateWorker(t, r)
	vals, _, err := r.ExecuteTask(&Request{
		Name: "test_scale_mat", NOut: 1, Args: []any{mat.Scale(1.0, m), 2.0},
		Session: sess, TaskID: 2,
		ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: out}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	got := vals[0].(*mat.Dense)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Data[%d] = %x, want %x", i, got.Data[i], want.Data[i])
		}
	}
	st := r.Stats()
	if st.PeerFetches != 0 || st.PeerFallbacks != 0 || st.PeerBytesSent != 0 || st.PeerBytesRecv != 0 || st.PeerValueBytes != 0 {
		t.Fatalf("Stats = %+v, want every peer counter zero beside a peerless member", st)
	}
	if st.RefValueBytes == 0 {
		t.Fatalf("RefValueBytes = 0, want > 0 (the warm value re-shipped over the coordinator link)")
	}
}
