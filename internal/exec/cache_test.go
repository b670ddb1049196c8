package exec

// White-box tests for the worker future cache (cache.go) and the
// coordinator data plane that rides on it (remote.go): LRU accounting, who
// owns a value at each step (moved in, shared out, never copied), the size
// type table, locality-aware
// placement, the wire form each argument takes, a value crossing from one
// worker to another through the coordinator, and the Miss/resend recovery
// path driven by a deliberately poisoned residency map.

import (
	"testing"
	"time"

	"taskml/internal/mat"
)

func init() {
	// Used by the data-plane tests below; also registered in the re-exec'd
	// loopback worker child, which runs this same init.
	Register("test_sum_list", func(args []any) (any, error) {
		var s float64
		for _, v := range args[0].([]any) {
			s += v.(float64)
		}
		return s, nil
	})
	// The ownership test's bodies: one makes a value, one hands its argument
	// back untouched.
	Register("test_make_floats", func(args []any) (any, error) {
		return []float64{1, 2, 3}, nil
	})
	Register("test_identity", func(args []any) (any, error) {
		return args[0], nil
	})
}

func ref(task int) ValueRef { return ValueRef{Session: 1, Task: task, Out: 0} }

// floats returns a []float64 whose accounted size is 8*n+8 bytes.
func floats(n int) []float64 { return make([]float64, n) }

func TestFutureCacheLRUEviction(t *testing.T) {
	c := newFutureCache(100) // room for two 40-byte entries, not three
	if _, ok := c.put(ref(1), floats(4)); !ok {
		t.Fatal("put a rejected")
	}
	if _, ok := c.put(ref(2), floats(4)); !ok {
		t.Fatal("put b rejected")
	}
	if got := c.occupancy(); got != 80 {
		t.Fatalf("occupancy = %d, want 80", got)
	}
	// Touch a so b becomes least recent, then insert c to force eviction.
	if _, ok := c.get(ref(1)); !ok {
		t.Fatal("get a missed")
	}
	if _, ok := c.put(ref(3), floats(4)); !ok {
		t.Fatal("put c rejected")
	}
	if _, ok := c.get(ref(2)); ok {
		t.Fatal("b survived eviction, want LRU evicted")
	}
	if _, ok := c.get(ref(1)); !ok {
		t.Fatal("a evicted, want kept (recently used)")
	}
	if _, ok := c.get(ref(3)); !ok {
		t.Fatal("c evicted right after insert")
	}
	ev := c.drainEvicted()
	if len(ev) != 1 || ev[0] != ref(2) {
		t.Fatalf("drainEvicted = %v, want [ref(2)]", ev)
	}
	if again := c.drainEvicted(); len(again) != 0 {
		t.Fatalf("second drainEvicted = %v, want empty (exactly-once)", again)
	}
	if got := c.occupancy(); got != 80 {
		t.Fatalf("occupancy after eviction = %d, want 80", got)
	}
}

// TestFutureCacheForget: forgetting a session drops its entries, reports none
// of them evicted, leaves every other session's alone and the LRU order of
// what is left intact.
func TestFutureCacheForget(t *testing.T) {
	c := newFutureCache(200) // five 40-byte entries
	dead := func(task int) ValueRef { return ValueRef{Session: 2, Task: task} }
	c.put(ref(1), floats(4))
	c.put(dead(1), floats(4))
	c.put(ref(2), floats(4))
	c.put(dead(2), floats(4))
	c.forget([]uint64{2, 99})
	if got := c.occupancy(); got != 80 {
		t.Fatalf("occupancy = %d, want the live session's 80", got)
	}
	if ev := c.drainEvicted(); len(ev) != 0 {
		t.Fatalf("drainEvicted = %v, want nothing: a forgotten entry is not an eviction", ev)
	}
	for _, r := range []ValueRef{dead(1), dead(2)} {
		if _, ok := c.get(r); ok {
			t.Fatalf("%v survived its session", r)
		}
	}
	// ref(1) is least recent: filling the cache past its bound evicts it first.
	for task := 3; task <= 6; task++ {
		c.put(ref(task), floats(4))
	}
	if ev := c.drainEvicted(); len(ev) != 1 || ev[0] != ref(1) {
		t.Fatalf("drainEvicted = %v, want [ref(1)]", ev)
	}
	if _, ok := c.get(ref(2)); !ok {
		t.Fatal("the live session lost an entry it had room for")
	}
}

// TestCacheOwnership walks a value through the worker: the output a body
// returns becomes resident as it is, a read-only consumer is handed the
// resident value itself, and a RefValue is kept as decoded — nothing is
// copied on the way in or out.
func TestCacheOwnership(t *testing.T) {
	cache := newFutureCache(1 << 20)
	produced := ValueRef{Session: 1, Task: 1}

	resp := handle(&request{Name: "test_make_floats", NOut: 1, Session: 1, Task: 1, Store: true}, cache)
	if resp.Err != "" || len(resp.Stored) != 1 || resp.Stored[0].Ref != produced {
		t.Fatalf("producer response = %+v, want one Stored output", resp)
	}
	out := resp.Vals[0].([]float64)
	resident, ok := cache.get(produced)
	if !ok || &resident.([]float64)[0] != &out[0] {
		t.Fatal("a stored output was copied; the cache must take the body's value itself")
	}

	resp = handle(&request{Name: "test_identity", NOut: 1, Args: []any{produced}}, cache)
	if resp.Err != "" || resp.RefHits != 1 {
		t.Fatalf("read-only consumer response = %+v, want one hit", resp)
	}
	if got := resp.Vals[0].([]float64); &got[0] != &out[0] {
		t.Fatal("a hit on a read-only argument was copied; the body must see the resident value")
	}

	// A RefValue is kept as decoded and handed to the body as is.
	arrived := []float64{5, 6}
	seeded := ValueRef{Session: 1, Task: 2}
	resp = handle(&request{Name: "test_identity", NOut: 1, Args: []any{RefValue{Ref: seeded, Val: arrived}}}, cache)
	if resp.Err != "" || len(resp.Stored) != 1 {
		t.Fatalf("RefValue response = %+v, want the value stored", resp)
	}
	resident, _ = cache.get(seeded)
	if &resident.([]float64)[0] != &arrived[0] || &resp.Vals[0].([]float64)[0] != &arrived[0] {
		t.Fatal("a RefValue was copied on its way into the cache or to the body")
	}
}

// TestFutureCacheReinsert: re-storing an existing ref (the resent-request
// replay) refreshes recency without double-accounting bytes.
func TestFutureCacheReinsert(t *testing.T) {
	c := newFutureCache(100)
	c.put(ref(1), floats(4))
	c.put(ref(2), floats(4))
	if n, ok := c.put(ref(1), floats(4)); !ok || n != 40 {
		t.Fatalf("re-put = (%d, %v), want (40, true)", n, ok)
	}
	if got := c.occupancy(); got != 80 {
		t.Fatalf("occupancy after re-put = %d, want 80 (no double count)", got)
	}
	// ref(1) is now most recent, so the next insert evicts ref(2).
	c.put(ref(3), floats(4))
	if _, ok := c.get(ref(1)); !ok {
		t.Fatal("re-put did not refresh recency: ref(1) evicted")
	}
	if _, ok := c.get(ref(2)); ok {
		t.Fatal("ref(2) survived, want LRU evicted after ref(1) refresh")
	}
}

type sizedOnly struct{}

func (sizedOnly) ExecValueBytes() int64 { return 16 }

type unsizable struct{}

type sizedFloats struct{ v []float64 }

func (s *sizedFloats) ExecValueBytes() int64 { return int64(len(s.v)) * 8 }

// The sized test types get their sizes the way a domain type does: from
// their codec rows.
func init() {
	RegisterCodec(func(*Encoder, sizedOnly) {}, func(*Decoder) sizedOnly { return sizedOnly{} }, sizedOnly.ExecValueBytes)
	RegisterCodec(func(e *Encoder, s *sizedFloats) { e.Float64s(s.v) },
		func(d *Decoder) *sizedFloats { return &sizedFloats{v: d.Float64s()} }, (*sizedFloats).ExecValueBytes)
}

func TestFutureCacheRejects(t *testing.T) {
	if _, ok := newFutureCache(0).put(ref(1), floats(1)); ok {
		t.Fatal("disabled cache accepted a put")
	}
	if _, ok := newFutureCache(-1).put(ref(1), floats(1)); ok {
		t.Fatal("disabled cache accepted a put")
	}
	c := newFutureCache(16)
	if _, ok := c.put(ref(1), floats(4)); ok {
		t.Fatal("oversized value accepted")
	}
	if _, ok := c.put(ref(3), unsizable{}); ok {
		t.Fatal("unsizable value accepted")
	}
	if _, ok := c.put(ref(4), &sizedFloats{v: []float64{1}}); !ok {
		t.Fatal("value sized by its codec rejected")
	}
	if c.occupancy() != 8 {
		t.Fatalf("occupancy = %d, want 8", c.occupancy())
	}
}

func TestSizeOfValue(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{nil, 0},
		{mat.New(3, 4), 3*4*8 + 16},
		{(*mat.Dense)(nil), 0},
		{[]float64{1, 2, 3}, 32},
		{[][]float64{{1}, {2, 3}}, 8 + (8 + 24) + (16 + 24)},
		{[]int{1, 2}, 24},
		{[]bool{true, false, true}, 11},
		{[]string{"ab"}, 8 + 2 + 16},
		{[]any{1.0, []int{1}}, 8 + 8 + 16},
		{[]any{1.0, struct{}{}}, 0}, // one unsizable element poisons the whole
		{[]any{1.0, (*mat.Dense)(nil)}, 0},
		{3.14, 8},
		{int(7), 8},
		{int64(7), 8},
		{uint64(7), 8},
		{true, 8},
		{ValueRef{}, 0},
		{RefValue{}, 0},
		{"abcd", 20},
		{sizedOnly{}, 16},
		{struct{}{}, 0},
	}
	for _, tc := range cases {
		if got := sizeOfValue(tc.v); got != tc.want {
			t.Errorf("sizeOfValue(%T %v) = %d, want %d", tc.v, tc.v, got, tc.want)
		}
	}
}

func TestNextSession(t *testing.T) {
	a, b := NextSession(), NextSession()
	if a == 0 || b == 0 || b <= a {
		t.Fatalf("NextSession: %d then %d, want increasing nonzero", a, b)
	}
}

// TestRemoteLocalityPlacement: once a worker stores a task's output, every
// free-slot consumer of that output lands on it, travels by reference, and
// the residency bookkeeping shows up in WorkerInfo.
func TestRemoteLocalityPlacement(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 2, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	sess := NextSession()
	m := mat.New(64, 64)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	vals, producer, err := r.executeOne(&Request{
		Name: "test_scale_mat", NOut: 1, Args: []any{m, 1.0},
		Session: sess, TaskID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := ref(1)
	out.Session = sess

	for i := 0; i < 4; i++ {
		args := []any{vals[0], 2.0}
		_, w, err := r.executeOne(&Request{
			Name: "test_scale_mat", NOut: 1, Args: args,
			Session: sess, TaskID: 10 + i,
			ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: out}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if w != producer {
			t.Fatalf("consumer %d placed on %s, want data-holder %s", i, w, producer)
		}
		if _, isRef := args[0].(*mat.Dense); !isRef {
			t.Fatalf("runtime-owned Args mutated: args[0] is %T", args[0])
		}
	}
	st := r.Stats()
	if st.RefHits < 4 {
		t.Fatalf("RefHits = %d, want >= 4 (one per consumer)", st.RefHits)
	}
	if st.RefMisses != 0 || st.MissRetries != 0 {
		t.Fatalf("Stats = %+v, want no misses on a warm holder", st)
	}
	var holder, other int64
	for _, w := range r.Workers() {
		if w.ID == producer {
			holder = w.ResidentBytes
		} else {
			other = w.ResidentBytes
		}
	}
	if holder <= 0 || other != 0 {
		t.Fatalf("ResidentBytes holder=%d other=%d, want holder>0 and other==0", holder, other)
	}
}

// TestWireArgsSelection pins buildWireArgs' wire forms: resident on a live
// target → ValueRef, anything else (held by another alive worker, by
// nobody, on a target already retired, or inlineAll) → RefValue — with refValueBytes counting exactly the RefValues another alive
// worker held.
func TestWireArgsSelection(t *testing.T) {
	rf := ref(1)
	val := floats(4) // 40 accounted bytes
	cases := []struct {
		name       string
		inlineAll  bool
		target     bool        // the target holds the value
		targetDead bool        // the target was retired after it was picked
		holder     workerState // another worker's state; wsDead = it holds nothing
		wantRef    bool        // bare ValueRef, else RefValue
		wantRVB    int64       // refValueBytes delta
	}{
		{name: "resident", target: true, holder: wsAlive, wantRef: true},
		{name: "holder-alive", holder: wsAlive, wantRVB: 40},
		{name: "target-dead", target: true, targetDead: true, holder: wsAlive, wantRVB: 40},
		{name: "inline-all", inlineAll: true, target: true, holder: wsAlive, wantRVB: 40},
		{name: "cold", holder: wsDead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRemote(0)
			w := &workerConn{id: "w0", state: wsAlive, slots: 1, resident: map[ValueRef]int64{}}
			if tc.targetDead {
				w.state = wsDead
			}
			h := &workerConn{id: "w1", state: tc.holder, slots: 1, resident: map[ValueRef]int64{}}
			if tc.target {
				w.resident[rf] = 40
			}
			if tc.holder != wsDead {
				h.resident[rf] = 40
			}
			r.workers = []*workerConn{w, h}

			shipped := map[ValueRef]bool{}
			req := &Request{Name: "x", NOut: 1, Args: []any{val}, Session: 1, TaskID: 5,
				ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: rf}}}
			out, err := r.buildWireArgs(w, req, tc.inlineAll, shipped)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantRef {
				if _, ok := out[0].(ValueRef); !ok || len(shipped) != 0 {
					t.Fatalf("wire form = %T (shipped %v), want a bare ValueRef", out[0], shipped)
				}
			} else if _, ok := out[0].(RefValue); !ok || !shipped[rf] {
				t.Fatalf("wire form = %T (shipped %v), want a RefValue named as shipped", out[0], shipped)
			}
			if got := r.refValueBytes.Load(); got != tc.wantRVB {
				t.Fatalf("refValueBytes = %d, want %d", got, tc.wantRVB)
			}
		})
	}
}

// testMatrix returns a deterministic 64×64 input and its expected doubled
// result.
func testMatrix() (*mat.Dense, *mat.Dense) {
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

// TestCrossWorkerValueShipsThroughCoordinator: a value produced on one
// worker and consumed on the other travels through the coordinator as a
// RefValue, lands bit-identically, is counted in RefValueBytes, seeds the
// consumer's cache — so both workers hold it afterwards — and leaves the
// counters a partition with every peer counter at zero. The fleet is two
// loopback worker processes, or one beside an in-process member the
// coordinator joined mid-run.
func TestCrossWorkerValueShipsThroughCoordinator(t *testing.T) {
	for _, tc := range []struct {
		name   string
		joined bool // the second member is an in-process Serve, joined
	}{
		{name: "loopback-workers"},
		{name: "joined-member", joined: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workers := 2
			if tc.joined {
				workers = 1
			}
			r, err := SpawnLoopback(LoopbackConfig{Workers: workers, Slots: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if tc.joined {
				if _, err := r.join(serveHere(t)); err != nil {
					t.Fatal(err)
				}
			}
			crossWorker(t, r)
		})
	}
}

// crossWorker produces a matrix on one member of r's two, consumes it on the
// other, and checks what TestCrossWorkerValueShipsThroughCoordinator claims.
func crossWorker(t *testing.T, r *Remote) {
	t.Helper()
	sess := NextSession()
	m, want := testMatrix()
	_, producer, err := r.executeOne(&Request{
		Name: "test_scale_mat", NOut: 1, Args: []any{m, 1.0},
		Session: sess, TaskID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := ValueRef{Session: sess, Task: 1, Out: 0}

	wait := saturateWorker(t, r)
	vals, consumer, err := r.executeOne(&Request{
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
			t.Fatalf("Data[%d] = %x, want %x (the crossing changed the value)", i, got.Data[i], want.Data[i])
		}
	}

	st := r.Stats()
	if st.RefValueBytes == 0 {
		t.Fatalf("RefValueBytes = 0, want > 0 (the held value re-shipped through the coordinator)")
	}
	if st.MissRetries != 0 || st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("Stats = %+v, want no misses and the outcome partition at quiescence", st)
	}
	if st.PeerFetches != 0 || st.PeerFallbacks != 0 || st.PeerBytesSent != 0 || st.PeerBytesRecv != 0 {
		t.Fatalf("Stats = %+v, want every peer counter zero", st)
	}
	holders := 0
	for _, w := range r.Workers() {
		if w.ResidentBytes > 0 {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("%d workers hold residency after the crossing, want 2 (the RefValue seeds the consumer's cache)", holders)
	}
}

// TestRemoteNestedRefs: a ValueRef inside a []any argument (the wire form
// of a []*Future parameter) resolves from the cache, and the substitution
// copies the inner slice rather than mutating the caller's.
func TestRemoteNestedRefs(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	sess := NextSession()
	vals, _, err := r.executeOne(&Request{
		Name: "test_add", NOut: 1, Args: []any{4.0, 5.0},
		Session: sess, TaskID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := ValueRef{Session: sess, Task: 1, Out: 0}

	inner := []any{vals[0], 3.0}
	sum, _, err := r.executeOne(&Request{
		Name: "test_sum_list", NOut: 1, Args: []any{inner},
		Session: sess, TaskID: 2,
		ArgRefs: []ArgRef{{Arg: 0, Elem: 0, Ref: out}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum[0].(float64) != 12 {
		t.Fatalf("sum = %v, want 12", sum[0])
	}
	if _, isVal := inner[0].(float64); !isVal {
		t.Fatalf("caller's []any mutated: inner[0] is %T", inner[0])
	}
	if st := r.Stats(); st.RefHits < 1 {
		t.Fatalf("RefHits = %d, want >= 1 (nested ref resolved from cache)", st.RefHits)
	}
}

// TestRemoteMissResend drives the recovery path deterministically: the
// residency map is poisoned with a ref the worker never stored, so the first
// send travels by reference, the worker replies Miss, and the coordinator
// re-sends with values inlined — same answer, one MissRetry, and the resend
// seeds the cache so the next consumer hits.
func TestRemoteMissResend(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	sess := NextSession()
	m := mat.New(8, 8)
	for i := range m.Data {
		m.Data[i] = 0.1 * float64(i)
	}
	poisoned := ValueRef{Session: sess, Task: 7, Out: 0}
	r.mu.Lock()
	r.workers[0].resident[poisoned] = 1
	r.workers[0].residentBytes = 1
	r.mu.Unlock()

	vals, _, err := r.executeOne(&Request{
		Name: "test_scale_mat", NOut: 1, Args: []any{m, 2.0},
		Session: sess, TaskID: 9,
		ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: poisoned}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := mat.Scale(2.0, m)
	got := vals[0].(*mat.Dense)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Data[%d] = %x, want %x (miss resend changed the answer)", i, got.Data[i], want.Data[i])
		}
	}
	st := r.Stats()
	if st.MissRetries != 1 {
		t.Fatalf("MissRetries = %d, want 1", st.MissRetries)
	}
	if st.RefMisses == 0 {
		t.Fatalf("RefMisses = %d, want > 0", st.RefMisses)
	}
	if st.Dispatched != st.Completed {
		t.Fatalf("Stats = %+v, want Dispatched == Completed at quiescence", st)
	}

	// The inlined resend seeded the cache: the same ref now hits.
	r.mu.Lock()
	_, seeded := r.workers[0].resident[poisoned]
	r.mu.Unlock()
	if !seeded {
		t.Fatal("resend did not seed residency for the missed ref")
	}
	hitsBefore := st.RefHits
	if _, _, err := r.executeOne(&Request{
		Name: "test_scale_mat", NOut: 1, Args: []any{m, 3.0},
		Session: sess, TaskID: 10,
		ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: poisoned}},
	}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.RefHits <= hitsBefore || st.MissRetries != 1 {
		t.Fatalf("after reseed: Stats = %+v, want a hit and no new retries", st)
	}
}

// TestRemoteAnonymousNoCaching: requests without a session (TaskID -1 /
// Session 0 — the Execute surface) must not populate any residency.
func TestRemoteAnonymousNoCaching(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Execute("test_scale_mat", 1, []any{mat.New(4, 4), 2.0}); err != nil {
		t.Fatal(err)
	}
	for _, w := range r.Workers() {
		if w.ResidentBytes != 0 {
			t.Fatalf("anonymous request left %d resident bytes on %s", w.ResidentBytes, w.ID)
		}
	}
	if st := r.Stats(); st.RefHits != 0 || st.RefMisses != 0 {
		t.Fatalf("anonymous request touched the data plane: %+v", st)
	}
}
