package exec

// White-box tests for the worker future cache (cache.go) and the
// coordinator data plane that rides on it (remote.go): LRU accounting, who
// owns a value at each step (moved in, shared out, cloned only for a
// declared in-place argument), the size/clone type tables, locality-aware
// placement, and the Miss/resend recovery path driven by a deliberately
// poisoned residency map.

import (
	"testing"

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
	// The ownership tests' bodies: one makes a value, one hands its argument
	// back untouched, one overwrites its declared in-place argument.
	Register("test_make_floats", func(args []any) (any, error) {
		return []float64{1, 2, 3}, nil
	})
	Register("test_identity", func(args []any) (any, error) {
		return args[0], nil
	})
	RegisterInPlace("test_bump_in_place", func(args []any) (any, error) {
		dst := args[0].([]float64)
		for i := range dst {
			dst[i] += args[1].(float64)
		}
		return dst, nil
	}, 0)
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
// resident value itself, and only a declared in-place argument is cloned —
// so running the in-place body twice over one resident input (the retry and
// Miss-resend case) gives the same answer twice and leaves the input's bits
// alone.
func TestCacheOwnership(t *testing.T) {
	plane := &connPlane{cache: newFutureCache(1 << 20)}
	produced := ValueRef{Session: 1, Task: 1}

	resp := handle(&request{Name: "test_make_floats", NOut: 1, Session: 1, Task: 1, Store: true}, plane)
	if resp.Err != "" || len(resp.Stored) != 1 || resp.Stored[0].Ref != produced {
		t.Fatalf("producer response = %+v, want one Stored output", resp)
	}
	out := resp.Vals[0].([]float64)
	resident, ok := plane.cache.get(produced)
	if !ok || &resident.([]float64)[0] != &out[0] {
		t.Fatal("a stored output was copied; the cache must take the body's value itself")
	}

	resp = handle(&request{Name: "test_identity", NOut: 1, Args: []any{produced}}, plane)
	if resp.Err != "" || resp.RefHits != 1 {
		t.Fatalf("read-only consumer response = %+v, want one hit", resp)
	}
	if got := resp.Vals[0].([]float64); &got[0] != &out[0] {
		t.Fatal("a hit on a read-only argument was copied; the body must see the resident value")
	}

	for run := 0; run < 2; run++ {
		resp = handle(&request{Name: "test_bump_in_place", NOut: 1, Args: []any{produced, 10.0}}, plane)
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		got := resp.Vals[0].([]float64)
		if got[0] != 11 || got[1] != 12 || got[2] != 13 {
			t.Fatalf("run %d: in-place body returned %v, want [11 12 13] from an untouched input", run, got)
		}
		if &got[0] == &out[0] {
			t.Fatal("a declared in-place argument was handed the resident value, not a clone")
		}
		if out[0] != 1 || out[1] != 2 || out[2] != 3 {
			t.Fatalf("run %d: resident value is now %v, want [1 2 3]", run, out)
		}
	}

	// A RefValue is kept as decoded and handed to a read-only body as is; an
	// in-place body still gets its own copy of it.
	arrived := []float64{5, 6}
	seeded := ValueRef{Session: 1, Task: 2}
	resp = handle(&request{Name: "test_identity", NOut: 1, Args: []any{RefValue{Ref: seeded, Val: arrived}}}, plane)
	if resp.Err != "" || len(resp.Stored) != 1 {
		t.Fatalf("RefValue response = %+v, want the value stored", resp)
	}
	resident, _ = plane.cache.get(seeded)
	if &resident.([]float64)[0] != &arrived[0] || &resp.Vals[0].([]float64)[0] != &arrived[0] {
		t.Fatal("a RefValue was copied on its way into the cache or to the body")
	}
	resp = handle(&request{Name: "test_bump_in_place", NOut: 1, Args: []any{RefValue{Ref: seeded, Val: arrived}, 1.0}}, plane)
	if got := resp.Vals[0].([]float64); resp.Err != "" || got[0] != 6 || arrived[0] != 5 {
		t.Fatalf("in-place body over a RefValue: got %v (err %q), resident %v — want [6 7] and [5 6]", resp.Vals, resp.Err, arrived)
	}

	// A plain argument was decoded for this request alone: no clone needed.
	plain := []float64{1}
	resp = handle(&request{Name: "test_bump_in_place", NOut: 1, Args: []any{plain, 1.0}}, plane)
	if got := resp.Vals[0].([]float64); resp.Err != "" || &got[0] != &plain[0] {
		t.Fatalf("a plain in-place argument was copied (err %q)", resp.Err)
	}

	// A resident in-place argument without a clone path fails the request
	// instead of exposing the resident value.
	opaque := ValueRef{Session: 1, Task: 3}
	if _, ok := plane.cache.put(opaque, sizedOnly{}); !ok {
		t.Fatal("put of a sized value rejected")
	}
	resp = handle(&request{Name: "test_bump_in_place", NOut: 1, Args: []any{opaque, 1.0}}, plane)
	if resp.Err == "" {
		t.Fatal("an unclonable resident in-place argument must fail the request")
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

type cloneOnly struct{}

func (c cloneOnly) CloneExecValue() any { return c }

type sizedCloner struct{ v []float64 }

func (s *sizedCloner) ExecValueBytes() int64 { return int64(len(s.v)) * 8 }
func (s *sizedCloner) CloneExecValue() any {
	return &sizedCloner{v: append([]float64(nil), s.v...)}
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
	if _, ok := c.put(ref(3), cloneOnly{}); ok {
		t.Fatal("unsizable value accepted")
	}
	if _, ok := c.put(ref(4), &sizedCloner{v: []float64{1}}); !ok {
		t.Fatal("Sizer value rejected")
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
		{3.14, 8},
		{int(7), 8},
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

func TestCloneValue(t *testing.T) {
	// Deep-copy shapes: mutating the clone must not touch the original.
	nested := []any{[]float64{1, 2}, []any{[]int{3}}}
	cl, ok := cloneValue(nested)
	if !ok {
		t.Fatal("cloneValue([]any) not clonable")
	}
	cl.([]any)[0].([]float64)[0] = 99
	cl.([]any)[1].([]any)[0].([]int)[0] = 99
	if nested[0].([]float64)[0] != 1 || nested[1].([]any)[0].([]int)[0] != 3 {
		t.Fatalf("clone shares memory with original: %v", nested)
	}

	if v, ok := cloneValue((*mat.Dense)(nil)); !ok || v.(*mat.Dense) != nil {
		t.Fatalf("cloneValue(nil *Dense) = %v, %v", v, ok)
	}
	if _, ok := cloneValue(make(chan int)); ok {
		t.Fatal("cloneValue(chan) should not be clonable")
	}
	if _, ok := cloneValue([]any{1.0, make(chan int)}); ok {
		t.Fatal("one unclonable element should poison the []any")
	}
	sc := &sizedCloner{v: []float64{5}}
	clc, ok := cloneValue(sc)
	if !ok {
		t.Fatal("Cloner not clonable")
	}
	clc.(*sizedCloner).v[0] = 9
	if sc.v[0] != 5 {
		t.Fatal("Cloner clone shares memory")
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
	vals, producer, err := r.ExecuteTask(&Request{
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
		_, w, err := r.ExecuteTask(&Request{
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
	vals, _, err := r.ExecuteTask(&Request{
		Name: "test_add", NOut: 1, Args: []any{4.0, 5.0},
		Session: sess, TaskID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := ValueRef{Session: sess, Task: 1, Out: 0}

	inner := []any{vals[0], 3.0}
	sum, _, err := r.ExecuteTask(&Request{
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

	vals, _, err := r.ExecuteTask(&Request{
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
	if _, _, err := r.ExecuteTask(&Request{
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
