package exec_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskml/internal/compss"
	"taskml/internal/exec"
	"taskml/internal/mat"
)

// TestMain makes the test binary spawnable as a loopback worker: when the
// coordinator side of a test re-execs it with TASKML_EXEC_WORKER set,
// MaybeWorkerMain serves the functions registered below instead of running
// the tests again.
func TestMain(m *testing.M) {
	exec.MaybeWorkerMain()
	code := m.Run()
	if benchFleet != nil {
		benchFleet.Close()
	}
	os.Exit(code)
}

// Test task vocabulary. Registered from init so the re-exec'd worker child
// (which runs this same init) carries the identical name table.
func init() {
	exec.Register("test_add", func(args []any) (any, error) {
		return args[0].(float64) + args[1].(float64), nil
	})
	exec.Register("test_pid", func(args []any) (any, error) {
		return os.Getpid(), nil
	})
	exec.Register("test_scale_mat", func(args []any) (any, error) {
		return mat.Scale(args[1].(float64), args[0].(*mat.Dense)), nil
	})
	exec.RegisterN("test_split", func(args []any) ([]any, error) {
		xs := args[0].([]float64)
		var lo, hi []float64
		for _, x := range xs {
			if x < args[1].(float64) {
				lo = append(lo, x)
			} else {
				hi = append(hi, x)
			}
		}
		return []any{lo, hi}, nil
	})
	exec.Register("test_err", func(args []any) (any, error) {
		return nil, fmt.Errorf("deliberate failure: %v", args[0])
	})
	exec.Register("test_panic", func(args []any) (any, error) {
		panic("deliberate panic")
	})
	// The chain benchmark's bodies: nothing to compute, one output or three.
	exec.Register("test_noop", func([]any) (any, error) { return 1.0, nil })
	exec.RegisterN("test_noop3", func([]any) ([]any, error) { return []any{1.0, 2.0, 3.0}, nil })
	exec.Register("test_sleep_ms", func(args []any) (any, error) {
		time.Sleep(time.Duration(args[0].(int)) * time.Millisecond)
		return args[0], nil
	})
}

func TestRegistry(t *testing.T) {
	if !exec.Has("test_add") || exec.Has("no_such_function") {
		t.Fatalf("Has: wrong answers for test_add / no_such_function")
	}
	names := exec.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %q >= %q", names[i-1], names[i])
		}
	}

	vals, err := exec.Invoke("test_add", 1, []any{1.5, 2.25})
	if err != nil || len(vals) != 1 || vals[0].(float64) != 3.75 {
		t.Fatalf("Invoke(test_add) = %v, %v", vals, err)
	}
	if _, err := exec.Invoke("no_such_function", 1, nil); err == nil {
		t.Fatal("Invoke of an unregistered name should error")
	}
	if _, err := exec.Invoke("test_add", 2, []any{1.0, 2.0}); err == nil {
		t.Fatal("Invoke with wrong nOut should error")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	exec.Register("test_add", func([]any) (any, error) { return nil, nil })
}

func TestLocalBackend(t *testing.T) {
	var l exec.Local
	vals, worker, err := l.Execute("test_add", 1, []any{2.0, 3.0})
	if err != nil || vals[0].(float64) != 5 {
		t.Fatalf("Local.Execute = %v, %v", vals, err)
	}
	if worker != "" {
		t.Fatalf("Local worker id = %q, want empty (in-process)", worker)
	}
	if _, _, err := l.Execute("no_such_function", 1, nil); err == nil {
		t.Fatal("Local.Execute of an unregistered name should error")
	}
}

// TestLoopbackRoundtrip covers the whole wire path against real worker
// processes: scalars, matrices (bit-exact), multi-output, worker-side
// errors, and panic containment.
func TestLoopbackRoundtrip(t *testing.T) {
	r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 2, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if n := r.AliveWorkers(); n != 2 {
		t.Fatalf("AliveWorkers = %d, want 2", n)
	}

	// Execution really happens out of process.
	vals, worker, err := r.Execute("test_pid", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pid := vals[0].(int)
	if pid == os.Getpid() {
		t.Fatalf("test_pid ran in the coordinator process (pid %d)", pid)
	}
	found := false
	for _, w := range r.Workers() {
		if w.ID == worker {
			found = true
			if w.Pid != pid {
				t.Fatalf("worker %s handshake pid %d, body saw %d", worker, w.Pid, pid)
			}
		}
	}
	if !found {
		t.Fatalf("Execute reported unknown worker id %q", worker)
	}

	// Matrices round-trip bit-exactly.
	m := mat.New(3, 4)
	for i := range m.Data {
		m.Data[i] = 0.1 * float64(i+1) // values without exact binary representation
	}
	vals, _, err = r.Execute("test_scale_mat", 1, []any{m, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	got := vals[0].(*mat.Dense)
	want := mat.Scale(2.0, m)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Data[%d] = %x, want %x (not bit-identical)", i, got.Data[i], want.Data[i])
		}
	}

	// Multi-output.
	vals, _, err = r.Execute("test_split", 2, []any{[]float64{1, 5, 2, 8}, 4.0})
	if err != nil {
		t.Fatal(err)
	}
	if lo := vals[0].([]float64); len(lo) != 2 || lo[0] != 1 || lo[1] != 2 {
		t.Fatalf("test_split lo = %v", lo)
	}

	// Worker-side errors come back as errors, not dead connections.
	if _, _, err := r.Execute("test_err", 1, []any{"x"}); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("worker error not propagated: %v", err)
	}
	if _, _, err := r.Execute("test_panic", 1, nil); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("worker panic not contained: %v", err)
	}
	if n := r.AliveWorkers(); n != 2 {
		t.Fatalf("AliveWorkers after error+panic = %d, want 2 (failures must not kill workers)", n)
	}
	if _, _, err := r.Execute("test_add", 1, []any{1.0, 1.0}); err != nil {
		t.Fatalf("worker unusable after panic: %v", err)
	}

	st := r.Stats()
	if st.Dispatched == 0 || st.Completed != st.Dispatched || st.Failed != 0 {
		t.Fatalf("Stats = %+v, want dispatched == completed, no failures", st)
	}
}

// TestSlotAccounting checks that a single 2-slot worker runs at most two
// bodies at once and that the coordinator blocks (rather than erroring)
// when saturated.
func TestSlotAccounting(t *testing.T) {
	r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 1, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const calls = 6
	var wg sync.WaitGroup
	var inflight, peak atomic.Int64
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// inflight is sampled around the blocking Execute; the worker's
			// semaphore bounds true concurrency, this bounds observed peak.
			if _, _, err := r.Execute("test_sleep_ms", 1, []any{30}); err != nil {
				t.Errorf("Execute: %v", err)
				return
			}
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	for _, w := range r.Workers() {
		if w.Inflight != 0 {
			t.Fatalf("worker %s still has %d inflight after drain", w.ID, w.Inflight)
		}
	}
	if st := r.Stats(); st.Dispatched != calls || st.Completed != calls {
		t.Fatalf("Stats = %+v, want %d dispatched and completed", st, calls)
	}
}

// TestKillWorker: killing a worker mid-flight fails the in-flight attempt
// (the runtime's retry layer owns what happens next), retires the worker,
// and leaves the survivors serving.
func TestKillWorker(t *testing.T) {
	r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 2, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Saturate both workers with slow bodies, then kill worker 0. Exactly
	// one of the two calls must fail with a connection error.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := r.Execute("test_sleep_ms", 1, []any{2000})
			errs <- err
		}()
	}
	waitFor(t, time.Second, func() bool {
		inflight := 0
		for _, w := range r.Workers() {
			inflight += w.Inflight
		}
		return inflight == 2
	})
	if err := r.KillWorker(0); err != nil {
		t.Fatal(err)
	}

	var failed int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				failed++
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Execute did not return after worker kill")
		}
	}
	if failed != 1 {
		t.Fatalf("%d of 2 in-flight calls failed after killing one worker, want exactly 1", failed)
	}
	waitFor(t, 5*time.Second, func() bool { return r.AliveWorkers() == 1 })
	if st := r.Stats(); st.Failed == 0 {
		t.Fatalf("Stats = %+v, want Failed > 0 after a lost dispatch", st)
	}

	// The survivor keeps serving.
	vals, worker, err := r.Execute("test_add", 1, []any{20.0, 22.0})
	if err != nil || vals[0].(float64) != 42 {
		t.Fatalf("survivor Execute = %v, %v", vals, err)
	}
	if worker != "w1" {
		t.Fatalf("dispatch landed on %q, want the survivor w1", worker)
	}

	// Killing the survivor too leaves no capacity: Execute must error, not
	// hang — the runtime turns this into task failure / degraded mode.
	if err := r.KillWorker(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return r.AliveWorkers() == 0 })
	if _, _, err := r.Execute("test_add", 1, []any{1.0, 1.0}); err == nil {
		t.Fatal("Execute with no alive workers should error")
	}

	// At quiescence the counters partition: every dispatch ended exactly
	// once, as a completion or a connection failure — never both, never
	// neither (the double-count bug made kills look like successes too).
	if st := r.Stats(); st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("Stats = %+v, want Dispatched == Completed + Failed at quiescence", st)
	}
}

// TestKillWorkerCloseRace: KillWorker racing Close must never touch a
// process Close already reaped (run under -race in scripts/check.sh). After
// Close wins, KillWorker reports the backend closed instead of crashing.
func TestKillWorkerCloseRace(t *testing.T) {
	for iter := 0; iter < 3; iter++ {
		r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 2, Slots: 1})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); _ = r.KillWorker(0) }()
		go func() { defer wg.Done(); _ = r.Close() }()
		wg.Wait()
		if err := r.KillWorker(1); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("KillWorker after Close = %v, want backend-closed error", err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("second Close = %v", err)
		}
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := exec.Dial(exec.RemoteConfig{}); err == nil {
		t.Fatal("Dial with no peers should error")
	}
	if _, err := exec.Dial(exec.RemoteConfig{
		Peers:       []string{"127.0.0.1:1"}, // reserved port, nothing listens
		DialTimeout: 500 * time.Millisecond,
	}); err == nil {
		t.Fatal("Dial to a dead address should error")
	}
}

func TestOpenBackend(t *testing.T) {
	b, err := exec.Open(exec.Config{Backend: "local"})
	if err != nil || b != nil {
		t.Fatalf("Open(local) = %v, %v; want nil backend (in-process execution)", b, err)
	}
	if _, err := exec.Open(exec.Config{Backend: "bogus"}); err == nil {
		t.Fatal("Open with an unknown backend should error")
	}
	// The zero Config opens the one data plane there is: a dependent pair rides
	// one frame and an output nobody reads here stays on its worker.
	b, err = exec.Open(exec.Config{Backend: "remote", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	r := b.(*exec.Remote)
	sess := exec.NextSession()
	replies, _, err := r.ExecuteChain([]*exec.Request{
		{Name: "test_add", NOut: 1, Args: []any{1.0, 2.0}, Session: sess, TaskID: 1, Hold: true},
		{Name: "test_add", NOut: 1, Args: []any{exec.ValueRef{Session: sess, Task: 1}, 4.0}, Session: sess, TaskID: 2},
	})
	if err != nil || replies[1].Err != nil || replies[1].Vals[0] != 7.0 {
		t.Fatalf("loopback backend from Open: %+v, %v", replies, err)
	}
	if _, held := replies[0].Vals[0].(*exec.Held); !held {
		t.Fatalf("head reply = %+v, want its output held on the worker", replies[0])
	}
	if st := r.Stats(); st.Frames != 1 || st.Dispatched != 2 || st.Held != 1 {
		t.Fatalf("Stats = %+v, want 2 requests in 1 frame and 1 output held", st)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// forgetful is a Remote that also says which sessions it was asked to forget.
type forgetful struct {
	*exec.Remote
	forgot chan uint64
}

func (f forgetful) Forget(session uint64) {
	f.Remote.Forget(session)
	f.forgot <- session
}

// TestReleaseAfterFleetEnds: a runtime whose fleet closed, or whose only
// member left or drained, before the runtime became unreachable is released
// all the same — its finalizer forgets the session without writing to a
// closed link and without a panic.
func TestReleaseAfterFleetEnds(t *testing.T) {
	for _, end := range []string{"closed", "left", "drained"} {
		t.Run(end, func(t *testing.T) {
			r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 1, Slots: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			fr := forgetful{Remote: r, forgot: make(chan uint64, 1)}
			func() {
				rt := compss.New(compss.Config{Backend: fr})
				noopTree(rt)
				if err := rt.Barrier(); err != nil {
					t.Fatal(err)
				}
			}()
			if r.Stats().Held == 0 {
				t.Fatal("nothing was held: the release has nothing to forget")
			}
			switch end {
			case "closed":
				r.Close()
			case "left":
				if err := r.Leave("w0"); err != nil {
					t.Fatal(err)
				}
			case "drained":
				if err := r.Drain("w0"); err != nil {
					t.Fatal(err)
				}
			}
			sent := r.Stats().BytesSent
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				select {
				case <-fr.forgot:
					if got := r.Stats().BytesSent; got != sent {
						t.Fatalf("%d bytes written to a fleet that had ended", got-sent)
					}
					return
				case <-time.After(10 * time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatal("the runtime was never released")
				}
			}
		})
	}
}

// benchFleet is the one-worker fleet of BenchmarkRemoteRoundtrip and
// BenchmarkRemoteChainTree, spawned on the first invocation of either and
// closed by TestMain. The testing package
// calls a benchmark function once before it prints the row's name and again
// for every b.N it tries; spawning per call put the worker's start-up line
// on stderr in the middle of the row, which is how the row fell out of
// every folded BENCH_*.json.
var benchFleet *exec.Remote

// BenchmarkRemoteRoundtrip measures one round trip to a loopback worker
// carrying a small matrix block (8 KB each way) — the per-task wire
// overhead a remote deployment pays over in-process dispatch.
func BenchmarkRemoteRoundtrip(b *testing.B) {
	r := theBenchFleet(b)
	m := mat.New(32, 32)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	b.SetBytes(int64(8 * len(m.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Execute("test_scale_mat", 1, []any{m, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

func theBenchFleet(b *testing.B) *exec.Remote {
	if benchFleet == nil {
		r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 1, Slots: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchFleet = r
	}
	return benchFleet
}

// noopTree submits the forest's tree shape — bootstrap, a split, two splits,
// four subtrees, three joins: eleven tasks — with no-op bodies, whole, before
// its first task is ready, and returns the root once the gate is open.
func noopTree(rt *compss.Runtime) *compss.Future {
	noop := compss.Opts{Name: "noop", Exec: "test_noop"}
	split := func(rows *compss.Future) []*compss.Future {
		return rt.SubmitExecN(compss.Opts{Name: "noop3", Exec: "test_noop3"}, 3, rows)
	}
	held := make(chan struct{})
	gate := rt.Submit(compss.Opts{Name: "gate"}, func(*compss.TaskCtx, []any) (any, error) {
		<-held
		return 0.0, nil
	})
	root := split(rt.SubmitExec(noop, gate))
	left, right := split(root[1]), split(root[2])
	joinL := rt.SubmitExec(noop, left[0], rt.SubmitExec(noop, left[1]), rt.SubmitExec(noop, left[2]))
	joinR := rt.SubmitExec(noop, right[0], rt.SubmitExec(noop, right[1]), rt.SubmitExec(noop, right[2]))
	tree := rt.SubmitExec(noop, root[0], joinL, joinR)
	close(held)
	return tree
}

// BenchmarkRemoteChainTree runs noopTree through a real runtime and one
// loopback worker. What is left is dispatch: µs a task, and how many round
// trips a tree took (one, when it rides a chain; eleven without). The Get is
// waiting when the root is dispatched, so the root comes home in the reply.
func BenchmarkRemoteChainTree(b *testing.B) { benchTree(b, false) }

// BenchmarkRemoteHeldTree is the same tree with nobody waiting: every output
// is held, the root too, and pulled by a Get after the Barrier. recvB/op is
// what the coordinator link carried home for a tree.
func BenchmarkRemoteHeldTree(b *testing.B) { benchTree(b, true) }

func benchTree(b *testing.B, barrierFirst bool) {
	r := theBenchFleet(b)
	rt := compss.New(compss.Config{Backend: r})
	before := r.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := noopTree(rt)
		if barrierFirst {
			if err := rt.Barrier(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := rt.Get(tree); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := r.Stats()
	if got, want := after.Dispatched-before.Dispatched, uint64(11*b.N); got != want {
		b.Fatalf("%d requests dispatched, want %d", got, want)
	}
	if got := after.Pulls - before.Pulls; barrierFirst && got != uint64(b.N) {
		b.Fatalf("%d pulls, want one a tree: the root was not held", got)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(11*b.N), "us/task")
	b.ReportMetric(float64(after.Frames-before.Frames)/float64(b.N), "frames/op")
	b.ReportMetric(float64(after.BytesRecv-before.BytesRecv)/float64(b.N), "recvB/op")
}
