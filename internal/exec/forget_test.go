package exec

// A finished session is forgotten: the coordinator drops its residency, one
// forget frame a member drops its entries from the member's cache, and
// nothing else moves — the other sessions still hit, the stats partition
// holds, and a reference to a forgotten value costs a round trip, never an
// answer.

import (
	"net"
	"sync"
	"testing"
	"time"

	"taskml/internal/par"
)

// serveHere starts an in-process worker with its peer plane off and returns
// its address.
func serveHere(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	limit := par.Limit() // a worker caps the kernels of its process
	t.Cleanup(func() {
		l.Close()
		par.SetLimit(limit)
	})
	go func() { _ = Serve(l, WorkerConfig{Slots: 1, PeerListen: "off"}) }()
	return l.Addr().String()
}

func TestForgetSession(t *testing.T) {
	r, err := Dial(RemoteConfig{Peers: []string{serveHere(t)}, DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var mu sync.Mutex
	var last CacheSample
	r.SetCacheHook(func(s CacheSample) {
		mu.Lock()
		last = s
		mu.Unlock()
	})

	live, dead := NextSession(), NextSession()
	h := heldOf(t, r, holdReq(live, 1, "test_floats_n", 1000))
	heldOf(t, r, holdReq(dead, 1, "test_floats_n", 2000))
	heldOf(t, r, holdReq(dead, 2, "test_floats_n", 3000))
	before := r.Stats()
	r.Forget(dead)
	if got := r.Workers()[0].ResidentBytes; got != h.Bytes {
		t.Fatalf("ResidentBytes = %d after the forget, want the live session's %d", got, h.Bytes)
	}
	if st := r.Stats(); st.Dispatched != before.Dispatched || st.Completed != before.Completed ||
		st.Failed != before.Failed || st.Frames != before.Frames || st.Pulls != before.Pulls {
		t.Fatalf("Stats = %+v after %+v: a forget counts nowhere", st, before)
	}

	// The live session still hits, and the worker reports only its bytes.
	vals, _, err := r.ExecuteTask(&Request{
		Name: "test_identity", NOut: 1, Args: []any{h}, Session: live, TaskID: -1,
		ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: h.Ref}},
	})
	if err != nil || len(vals[0].([]float64)) != 1000 {
		t.Fatalf("consumer of the live session: %v, %v", vals, err)
	}
	if st := r.Stats(); st.RefHits != before.RefHits+1 || st.RefMisses != before.RefMisses {
		t.Fatalf("Stats = %+v, want one hit and no miss", st)
	}
	mu.Lock()
	if last.CacheBytes != h.Bytes {
		t.Fatalf("the worker reports %d cached bytes, want the live session's %d", last.CacheBytes, h.Bytes)
	}
	mu.Unlock()

	// A map that still claims a forgotten value sends its reference: the
	// worker misses, and the request goes again with the value inline.
	gone := outOf(dead, 1)
	r.mu.Lock()
	r.workers[0].resident[gone] = 8*2000 + 8
	r.mu.Unlock()
	vals, _, err = r.ExecuteTask(&Request{
		Name: "test_identity", NOut: 1, Args: []any{make([]float64, 2000)}, Session: dead, TaskID: -1,
		ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: gone}},
	})
	if err != nil || len(vals[0].([]float64)) != 2000 {
		t.Fatalf("consumer of a forgotten value: %v, %v", vals, err)
	}
	if st := r.Stats(); st.RefMisses != before.RefMisses+1 || st.MissRetries != before.MissRetries+1 {
		t.Fatalf("Stats = %+v, want the forgotten reference missed and resent", st)
	}
	if st := r.Stats(); st.Dispatched != st.Completed+st.Failed || st.Failed != 0 {
		t.Fatalf("Stats = %+v, want a clean partition", st)
	}
}
