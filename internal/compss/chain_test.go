package compss

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"taskml/internal/exec"
)

// Chain dispatch against a fake chain backend: no sockets, every frame
// recorded. The fake runs members in order through the exec registry, keeps
// outputs under their ValueRef like a worker cache, and can be told to fail a
// member's body, to lose a member's output (what an eviction or a disabled
// cache does: its dependents miss) or to fail a whole frame (a dead worker).
// With hold set it leaves outputs it may keep in its cache, answering with a
// marker each, and a frame naming a marker whose value is neither home nor
// kept any more is lost whole, before anything runs — as a fleet finds it.

func init() {
	num := func(v any) float64 {
		switch x := v.(type) {
		case float64:
			return x
		case int:
			return float64(x)
		}
		panic(fmt.Sprintf("chain test body: %T argument", v))
	}
	// chain_sum(args...): the sum of every number among args, []any included.
	exec.Register("chain_sum", func(args []any) (any, error) {
		s := 0.0
		for _, a := range args {
			if vs, ok := a.([]any); ok {
				for _, v := range vs {
					s += num(v)
				}
			} else {
				s += num(a)
			}
		}
		return s, nil
	})
	// chain_split(x): x+1 and x+2.
	exec.RegisterN("chain_split", func(args []any) ([]any, error) {
		return []any{num(args[0]) + 1, num(args[0]) + 2}, nil
	})
	// chain_sleep(x, ms): x+1 after ms milliseconds.
	exec.Register("chain_sleep", func(args []any) (any, error) {
		time.Sleep(time.Duration(num(args[1])) * time.Millisecond)
		return num(args[0]) + 1, nil
	})
}

type fakeChains struct {
	mu       sync.Mutex
	frames   [][]int               // task ids of every frame, in arrival order
	cache    map[exec.ValueRef]any // outputs by identity, as a worker holds them
	failBody map[int]error         // task id → its body fails (every time)
	lose     map[int]bool          // task id → its outputs are not kept, once, inside a chain
	failHead map[int]int           // task id → that many frames headed by it fail whole
	ran      map[int]int           // task id → times its body ran
	hold     bool                  // answer Hold requests with markers
	calls    []fakeCall            // every frame and pull, in arrival order
}

// fakeCall is one backend call: a frame of task ids, lost or not (redo: a
// lineage rerun), or a pull.
type fakeCall struct {
	ids              []int
	lost, redo, pull bool
}

func newFakeChains() *fakeChains {
	return &fakeChains{
		cache: map[exec.ValueRef]any{}, failBody: map[int]error{}, lose: map[int]bool{},
		failHead: map[int]int{}, ran: map[int]int{},
	}
}

func (f *fakeChains) Close() error   { return nil }
func (f *fakeChains) SlotTotal() int { return 0 }

// unchained is a fault plan that matches nothing: a runtime with one offers
// no chains.
var unchained = &FaultPlan{Faults: []Fault{{Name: "nothing"}}}

func (f *fakeChains) ExecuteChain(reqs []*exec.Request) ([]exec.Reply, string, error) {
	head := reqs[0].TaskID
	f.mu.Lock()
	ids := make([]int, len(reqs))
	for i, r := range reqs {
		ids[i] = r.TaskID
	}
	f.frames = append(f.frames, ids)
	dead := f.failHead[head] > 0
	if dead {
		f.failHead[head]--
	}
	lost := f.lostLocked(reqs)
	f.calls = append(f.calls, fakeCall{ids: ids, lost: lost, redo: reqs[0].Redo})
	f.mu.Unlock()
	if dead {
		return nil, "fake", errors.New("fake: connection lost")
	}
	if lost {
		return nil, "fake", exec.ErrLost
	}
	replies := make([]exec.Reply, len(reqs))
	for i, r := range reqs {
		start := time.Now()
		replies[i].Vals, replies[i].Err = f.run(r, len(reqs) > 1)
		replies[i].Body = time.Since(start)
	}
	return replies, "fake", nil
}

// lostLocked reports whether a member of reqs names a marker whose value is
// neither home nor in the cache.
func (f *fakeChains) lostLocked(reqs []*exec.Request) bool {
	lost := false
	var walk func(v any)
	walk = func(v any) {
		switch x := v.(type) {
		case *exec.Held:
			if _, home := x.Value(); !home {
				_, kept := f.cache[x.Ref]
				lost = lost || !kept
			}
		case []any:
			for _, e := range x {
				walk(e)
			}
		}
	}
	for _, r := range reqs {
		walk(r.Args)
	}
	return lost
}

// Pull brings markers home from the cache; ErrLost if one is not there.
func (f *fakeChains) Pull(hs []*exec.Held) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fakeCall{pull: true})
	var err error
	for _, h := range hs {
		if _, home := h.Value(); home {
			continue
		}
		if v, ok := f.cache[h.Ref]; ok {
			h.Fill(v)
		} else {
			err = exec.ErrLost
		}
	}
	return err
}

func (f *fakeChains) Forget(uint64) {}

// run is one member: resolve references against the cache (a missing one is
// the member's Miss), run the body, keep the outputs.
func (f *fakeChains) run(r *exec.Request, chained bool) ([]any, error) {
	var miss error
	var resolve func(v any) any
	resolve = func(v any) any {
		switch x := v.(type) {
		case exec.ValueRef:
			f.mu.Lock()
			val, ok := f.cache[x]
			f.mu.Unlock()
			if !ok {
				miss = fmt.Errorf("fake: miss %v", x)
			}
			return val
		case *exec.Held:
			if val, home := x.Value(); home {
				return val
			}
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.cache[x.Ref] // lostLocked vouched for it
		case []any:
			out := make([]any, len(x))
			for i, e := range x {
				out[i] = resolve(e)
			}
			return out
		}
		return v
	}
	args := resolve(r.Args).([]any)
	if miss != nil {
		return nil, miss
	}
	f.mu.Lock()
	f.ran[r.TaskID]++
	bodyErr := f.failBody[r.TaskID]
	lose := chained && f.lose[r.TaskID]
	delete(f.lose, r.TaskID)
	f.mu.Unlock()
	if bodyErr != nil {
		return nil, bodyErr
	}
	vals, err := exec.Invoke(r.Name, r.NOut, args)
	if err != nil || lose {
		return vals, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, v := range vals {
		f.cache[exec.ValueRef{Session: r.Session, Task: r.TaskID, Out: i}] = v
	}
	if f.hold && r.Hold {
		for i := range vals {
			vals[i] = &exec.Held{Ref: exec.ValueRef{Session: r.Session, Task: r.TaskID, Out: i}}
		}
	}
	return vals, nil
}

// drop forgets every output of task id, as a dead holder or an eviction does.
func (f *fakeChains) drop(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for ref := range f.cache {
		if ref.Task == id {
			delete(f.cache, ref)
		}
	}
}

func (f *fakeChains) callsSeen() []fakeCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fakeCall(nil), f.calls...)
}

func (f *fakeChains) framesSeen() [][]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]int(nil), f.frames...)
}

// gate submits a closure task that holds everything depending on it until
// the returned release is called, so a test can finish submitting a DAG
// before any of it is ready.
func gate(rt *Runtime) (*Future, func()) {
	ch := make(chan struct{})
	f := rt.Submit(Opts{Name: "gate"}, func(*TaskCtx, []any) (any, error) {
		<-ch
		return 1.0, nil
	})
	return f, func() { close(ch) }
}

func sum(rt *Runtime, o Opts, args ...any) *Future {
	o.Exec = "chain_sum"
	if o.Name == "" {
		o.Name = "sum"
	}
	return rt.SubmitExec(o, args...)
}

func mustGet(t *testing.T, rt *Runtime, f *Future, want float64) {
	t.Helper()
	v, err := rt.Get(f)
	if err != nil {
		t.Fatal(err)
	}
	if v != want {
		t.Fatalf("task %d = %v, want %v", f.TaskID(), v, want)
	}
}

// TestChainMembership: which tasks a head takes along, and in which order.
func TestChainMembership(t *testing.T) {
	t.Run("chain", func(t *testing.T) {
		be := newFakeChains()
		rt := New(Config{Workers: 2, Backend: be})
		g, release := gate(rt)
		a := sum(rt, Opts{}, g)
		b := sum(rt, Opts{}, a, 1.0)
		c := sum(rt, Opts{}, b, 1.0)
		d := sum(rt, Opts{}, c, 1.0)
		release()
		mustGet(t, rt, d, 4)
		want := [][]int{{a.TaskID(), b.TaskID(), c.TaskID(), d.TaskID()}}
		if got := be.framesSeen(); !reflect.DeepEqual(got, want) {
			t.Fatalf("frames %v, want %v", got, want)
		}
	})
	t.Run("diamond", func(t *testing.T) {
		be := newFakeChains()
		rt := New(Config{Workers: 2, Backend: be})
		g, release := gate(rt)
		a := rt.SubmitExecN(Opts{Name: "split", Exec: "chain_split"}, 2, g) // 2, 3
		b := sum(rt, Opts{}, a[0], 10.0)
		c := sum(rt, Opts{}, a[1], 20.0)
		d := sum(rt, Opts{}, []*Future{b, c}, a[0])
		release()
		mustGet(t, rt, d, 12+23+2)
		want := [][]int{{a[0].TaskID(), b.TaskID(), c.TaskID(), d.TaskID()}}
		if got := be.framesSeen(); !reflect.DeepEqual(got, want) {
			t.Fatalf("frames %v, want %v", got, want)
		}
	})
	t.Run("fan-out", func(t *testing.T) {
		be := newFakeChains()
		rt := New(Config{Workers: 2, Backend: be})
		g, release := gate(rt)
		a := sum(rt, Opts{}, g)
		var leaves []*Future
		for i := 0; i < 40; i++ {
			mid := sum(rt, Opts{}, a, float64(i))
			leaves = append(leaves, sum(rt, Opts{}, mid, 1.0))
		}
		release()
		for i, l := range leaves {
			mustGet(t, rt, l, float64(i)+2)
		}
		frames := be.framesSeen()
		if len(frames[0]) != chainCap || frames[0][0] != a.TaskID() {
			t.Fatalf("first frame %v, want %d members headed by %d", frames[0], chainCap, a.TaskID())
		}
		seen := map[int]bool{}
		for _, fr := range frames {
			if len(fr) > chainCap {
				t.Fatalf("frame %v is longer than the cap %d", fr, chainCap)
			}
			for _, id := range fr {
				if seen[id] {
					t.Fatalf("task %d ran in two frames: %v", id, frames)
				}
				seen[id] = true
				// Leaves sit at the even offsets from a, each right after its
				// mid: a leaf's producer is earlier in its frame or ran before.
				if (id-a.TaskID())%2 == 0 && id != a.TaskID() && !seen[id-1] {
					t.Fatalf("leaf %d before its producer %d: %v", id, id-1, frames)
				}
			}
		}
		if len(seen) != 81 {
			t.Fatalf("%d tasks dispatched, want 81", len(seen))
		}
	})
	t.Run("merge", func(t *testing.T) {
		be := newFakeChains()
		rt := New(Config{Workers: 2, Backend: be})
		g, release := gate(rt)
		x := sum(rt, Opts{}, 1.0)
		y := sum(rt, Opts{}, g)
		m := sum(rt, Opts{}, x, y)
		// Wait, without helping (a helper might run the gate itself), until x
		// has run: m still waits for y, outside x's frame.
		for deadline := time.Now().Add(10 * time.Second); !x.st.completed.Load(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("x never ran")
			}
		}
		release()
		mustGet(t, rt, m, 2)
		want := [][]int{{x.TaskID()}, {y.TaskID(), m.TaskID()}}
		if got := be.framesSeen(); !reflect.DeepEqual(got, want) {
			t.Fatalf("frames %v, want %v: a merge joins only its last producer", got, want)
		}
	})
	t.Run("mid-submit", func(t *testing.T) {
		be := newFakeChains()
		rt := New(Config{Workers: 2, Backend: be})
		g, release := gate(rt)
		a := sum(rt, Opts{}, g)
		b := sum(rt, Opts{}, a, 1.0)
		// What submit's sentinel does between registering b with a and
		// counting the producers that had already completed.
		b.st.pending.Add(1)
		if chain := collectChain(a.st); len(chain) != 1 {
			t.Fatalf("a task still being submitted joined a chain: %d members", len(chain))
		}
		b.st.pending.Add(-1)
		if chain := collectChain(a.st); len(chain) != 2 || chain[1] != b.st || !b.st.chained.Load() {
			t.Fatalf("a submitted task held back by the head alone did not join")
		}
		b.st.chained.Store(false)
		release()
		mustGet(t, rt, b, 2)
	})
	t.Run("never", func(t *testing.T) {
		be := newFakeChains()
		rt := New(Config{Workers: 2, Backend: be, Faults: unchained})
		g, release := gate(rt)
		a := sum(rt, Opts{}, g)
		b := sum(rt, Opts{}, a, 1.0)
		release()
		mustGet(t, rt, b, 2)
		if got, want := be.framesSeen(), [][]int{{a.TaskID()}, {b.TaskID()}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("fault plan: frames %v, want %v", got, want)
		}
	})
}

// chainDAG submits a nine-task DAG behind a gate — a chain, a split, a
// diamond and a tail — and returns its futures in submission order.
func chainDAG(rt *Runtime, o Opts) (fs []*Future, release func()) {
	g, release := gate(rt)
	a := sum(rt, o, g)                                                  // 1
	s := rt.SubmitExecN(Opts{Name: "split", Exec: "chain_split"}, 2, a) // 2, 3
	b := sum(rt, o, s[0], 10.0)                                         // 12
	c := sum(rt, o, s[1], 20.0)                                         // 23
	d := sum(rt, o, []*Future{b, c})                                    // 35
	e := sum(rt, o, d, a)                                               // 36
	f := sum(rt, o, e, 1.0)                                             // 37
	h := sum(rt, o, f, c)                                               // 60
	return []*Future{a, s[0], s[1], b, c, d, e, f, h}, release
}

var chainDAGWant = []float64{1, 2, 3, 12, 23, 35, 36, 37, 60}

// TestChainHandBack: a member whose body fails, or whose input is gone, goes
// back to the scheduler together with everything behind it, and the run ends
// exactly as the unchained one does — same values, same error.
func TestChainHandBack(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name     string
		lose     int // index into the DAG of a member whose output is lost once
		failBody int // index of a member whose body always fails
	}{
		{name: "none", lose: -1, failBody: -1},
		{name: "miss", lose: 3, failBody: -1},
		{name: "head output lost", lose: 0, failBody: -1},
		{name: "member error", lose: -1, failBody: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outcome := func(chains bool) (vals []any, errs []string, be *fakeChains) {
				be = newFakeChains()
				so := newSeqObserver()
				cfg := Config{Workers: 2, Backend: be, Observers: []Observer{so}}
				if !chains {
					cfg.Faults = unchained
				}
				rt := New(cfg)
				fs, release := chainDAG(rt, Opts{})
				if tc.lose >= 0 {
					be.lose[fs[tc.lose].TaskID()] = true
				}
				if tc.failBody >= 0 {
					be.failBody[fs[tc.failBody].TaskID()] = boom
				}
				release()
				for _, f := range fs {
					v, err := rt.Get(f)
					vals = append(vals, v)
					if err != nil {
						errs = append(errs, err.Error())
					} else {
						errs = append(errs, "")
					}
				}
				_ = rt.Barrier()
				so.check(t, rt.Graph().Len())
				return vals, errs, be
			}
			wantVals, wantErrs, plain := outcome(false)
			vals, errs, be := outcome(true)
			if !reflect.DeepEqual(vals, wantVals) || !reflect.DeepEqual(errs, wantErrs) {
				t.Fatalf("chained run: %v %q\nunchained:   %v %q", vals, errs, wantVals, wantErrs)
			}
			if tc.failBody < 0 {
				for i, v := range vals {
					if v != chainDAGWant[i] {
						t.Fatalf("task %d = %v, want %v", i, v, chainDAGWant[i])
					}
				}
			}
			if got, was := len(be.framesSeen()), len(plain.framesSeen()); got >= was {
				t.Fatalf("%d frames chained, %d unchained: nothing was chained", got, was)
			}
			if tc.name == "none" && len(be.framesSeen()) != 1 {
				t.Fatalf("frames %v, want the whole DAG in one", be.framesSeen())
			}
		})
	}
}

// TestChainLostArgument: a chain whose follower names a held value from
// outside the chain that no worker has any more is lost whole, nothing run.
// The followers are handed back and the head goes alone, before anything is
// pulled — its own held argument is still kept and travels as it is; only
// when the head alone is lost too are its arguments brought home — the lost
// producer rerun from lineage — and it goes once more. The values are the
// unchained run's.
func TestChainLostArgument(t *testing.T) {
	run := func(cfg Config) (vals []any, calls []fakeCall, ids [4]int) {
		be := newFakeChains()
		be.hold = true
		cfg.Workers, cfg.Backend = 2, be
		rt := New(cfg)
		// Run p, then q, each to completion without a Get, which would have
		// its output come home.
		held := func(f *Future) {
			for deadline := time.Now().Add(10 * time.Second); !f.st.completed.Load(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("task %d never ran", f.TaskID())
				}
			}
			if _, ok := f.st.vals[0].(*exec.Held); !ok {
				t.Fatalf("task %d's output came home: %v", f.TaskID(), f.st.vals[0])
			}
		}
		p := sum(rt, Opts{Name: "p"}, 5.0)
		held(p)
		q := sum(rt, Opts{Name: "q"}, 2.0)
		held(q)
		g, release := gate(rt)
		a := sum(rt, Opts{}, g, q)
		b := sum(rt, Opts{}, a, p)
		be.drop(p.TaskID())
		release()
		// b first: what a Get pulls comes after the call sequence asserted.
		for _, f := range []*Future{b, a, p, q} {
			v, err := rt.Get(f)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v)
		}
		return vals, be.callsSeen(), [4]int{p.TaskID(), q.TaskID(), a.TaskID(), b.TaskID()}
	}
	check := func(name string, calls []fakeCall, want []fakeCall) {
		t.Helper()
		if len(calls) < len(want) || !reflect.DeepEqual(calls[:len(want)], want) {
			t.Fatalf("%s: calls %+v, want %+v first", name, calls, want)
		}
	}

	wantVals, calls, id := run(Config{Faults: unchained})
	p, q, a, b := id[0], id[1], id[2], id[3]
	check("unchained", calls, []fakeCall{
		{ids: []int{p}}, {ids: []int{q}}, {ids: []int{a}}, {ids: []int{b}, lost: true},
		{pull: true}, {ids: []int{p}, redo: true}, {ids: []int{b}},
	})

	vals, calls, id := run(Config{})
	p, q, a, b = id[0], id[1], id[2], id[3]
	check("chained", calls, []fakeCall{
		{ids: []int{p}}, {ids: []int{q}}, {ids: []int{a, b}, lost: true}, {ids: []int{a}}, {ids: []int{b}, lost: true},
		{pull: true}, {ids: []int{p}, redo: true}, {ids: []int{b}},
	})
	if !reflect.DeepEqual(vals, wantVals) || !reflect.DeepEqual(vals, []any{8.0, 3.0, 5.0, 2.0}) {
		t.Fatalf("chained run %v, unchained %v, want [8 3 5 2]", vals, wantVals)
	}
}

// TestChainHeadFailure: a chain whose frame is lost is the head's failed
// attempt 0 — one retry gone, or final with no budget — and the followers run
// afterwards as if never chained.
func TestChainHeadFailure(t *testing.T) {
	run := func(o Opts) (*fakeChains, *Runtime, []*Future, *StatsObserver) {
		be := newFakeChains()
		so := NewStatsObserver()
		seq := newSeqObserver()
		rt := New(Config{Workers: 2, Backend: be, Observers: []Observer{so, seq}})
		g, release := gate(rt)
		a := sum(rt, o, g)
		b := sum(rt, Opts{}, a, 1.0)
		c := sum(rt, Opts{}, b, 1.0)
		be.failHead[a.TaskID()] = 1
		release()
		_ = rt.Barrier()
		seq.check(t, rt.Graph().Len())
		return be, rt, []*Future{a, b, c}, so
	}
	attempts := func(so *StatsObserver, id int) int {
		for _, s := range so.Stats() {
			if s.ID == id {
				return s.Attempts
			}
		}
		return -1
	}

	be, rt, fs, so := run(Opts{Retries: 2})
	mustGet(t, rt, fs[2], 3)
	a, b, c := fs[0].TaskID(), fs[1].TaskID(), fs[2].TaskID()
	if got, want := be.framesSeen(), [][]int{{a, b, c}, {a}, {b, c}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retry: frames %v, want %v", got, want)
	}
	if n := attempts(so, a); n != 2 {
		t.Fatalf("retry: head ran %d attempts, want 2", n)
	}
	if n := attempts(so, b); n != 1 {
		t.Fatalf("retry: a handed-back follower shows %d attempts, want 1", n)
	}

	_, rt, fs, so = run(Opts{Retries: -1})
	if _, err := rt.Get(fs[2]); err == nil || attempts(so, fs[0].TaskID()) != 1 {
		t.Fatalf("no retries: err %v after %d attempts, want a failure after 1", err, attempts(so, fs[0].TaskID()))
	}
	var de *DepError
	if _, err := rt.Get(fs[1]); !errors.As(err, &de) {
		t.Fatalf("no retries: follower error %v, want a DepError", err)
	}
}

// TestChainEventsAndStats: every member shows Submit < DepsReady < Start <
// End, the members' run times add up to the chain's wall, and nobody's queue
// or dependency wait is negative.
func TestChainEventsAndStats(t *testing.T) {
	be := newFakeChains()
	so := NewStatsObserver()
	seq := newSeqObserver()
	rt := New(Config{Workers: 2, Backend: be, Observers: []Observer{so, seq}})
	g, release := gate(rt)
	prev := g
	var fs []*Future
	for i := 0; i < 8; i++ {
		prev = rt.SubmitExec(Opts{Name: "sleep", Exec: "chain_sleep"}, prev, 5+i)
		fs = append(fs, prev)
	}
	start := time.Now()
	release()
	mustGet(t, rt, prev, 9)
	wall := time.Since(start)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	seq.check(t, rt.Graph().Len())
	if frames := be.framesSeen(); len(frames) != 1 || len(frames[0]) != 8 {
		t.Fatalf("frames %v, want one of 8", frames)
	}
	var run time.Duration
	for _, s := range so.Stats() {
		if s.Name != "sleep" {
			continue
		}
		if s.Queued < 0 || s.WaitDeps < 0 || s.Duration <= 0 || s.Attempts != 1 {
			t.Fatalf("task %d: wait %v queued %v run %v attempts %d", s.ID, s.WaitDeps, s.Queued, s.Duration, s.Attempts)
		}
		if want := time.Duration(5+s.ID-fs[0].TaskID()) * time.Millisecond; s.Duration < want {
			t.Fatalf("task %d ran %v, its body sleeps %v", s.ID, s.Duration, want)
		}
		run += s.Duration
	}
	if run > wall || float64(run) < 0.95*float64(wall) {
		t.Fatalf("members ran %v in all, the chain took %v: want within 5%%", run, wall)
	}
}
