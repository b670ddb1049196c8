package core

import (
	"os"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"taskml/internal/exec"
	"taskml/internal/leakcheck"
)

// TestMain lets the coordinator side of the remote tests re-exec this test
// binary as loopback worker processes (see exec.SpawnLoopback): when spawned
// with TASKML_EXEC_WORKER set, the process serves the library's registered
// task functions instead of running the tests. Otherwise the tests run
// under leakcheck: a runtime carrier, a worker connection or a kernel helper
// that outlives them fails the package with its stack.
func TestMain(m *testing.M) {
	exec.MaybeWorkerMain()
	os.Exit(leakcheck.Main(m))
}

// TestRemoteParityBitIdentical is the acceptance test of the out-of-process
// backend: the full RF cross-validation (PCA included) over two real worker
// processes must produce a confusion matrix and fold accuracies
// bit-identical to the in-process run. Registered bodies are argument-pure
// and results freshly allocated, so copying every argument across a socket
// must not change a single bit.
func TestRemoteParityBitIdentical(t *testing.T) {
	ds, err := BuildDataset(smallData(21))
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunCV(ModelRF, ds, fastCfg(21))
	if err != nil {
		t.Fatal(err)
	}

	// Four fleets, all required to be bit-identical to the in-process run:
	// two ordinary workers, one ordinary worker beside an in-process member
	// that dialed in to the coordinator's fleet listener, a deliberately tiny
	// 1 MiB cache (constant eviction, so most references Miss and re-send
	// inlined values), and workers that do not cache (values inline
	// throughout). Every value that crosses between workers goes through the
	// coordinator.
	variants := []struct {
		name   string
		cfg    exec.LoopbackConfig
		dialIn bool // one more member, in-process, joined through the fleet listener
	}{
		{name: "refs", cfg: exec.LoopbackConfig{Workers: 2, Slots: 1}},
		{name: "dial-in-member", cfg: exec.LoopbackConfig{Workers: 1, Slots: 1}, dialIn: true},
		{name: "refs-tiny-cache", cfg: exec.LoopbackConfig{Workers: 2, Slots: 1, CacheMB: 1}},
		{name: "no-cache", cfg: exec.LoopbackConfig{Workers: 2, Slots: 1, CacheMB: -1}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			backend, err := exec.SpawnLoopback(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer backend.Close()
			if v.dialIn {
				addr, err := backend.ListenForWorkers("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go func() { _ = exec.JoinCoordinator(addr, backend.JoinToken(), exec.WorkerConfig{Slots: 1}) }()
				for deadline := time.Now().Add(5 * time.Second); backend.AliveWorkers() < 2; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the dial-in member was never admitted")
					}
				}
			}
			cfg := fastCfg(21)
			cfg.Runtime.Backend = backend
			remote, err := RunCV(ModelRF, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}

			st := backend.Stats()
			if st.Dispatched == 0 {
				t.Fatal("no task was dispatched to the workers — the backend was not used")
			}
			// Quiescent (RunCV returned, nothing in flight): the outcome
			// counters must partition the dispatches exactly.
			if st.Dispatched != st.Completed+st.Failed {
				t.Fatalf("stats not a partition at quiescence: %+v", st)
			}
			noCache := v.cfg.CacheMB < 0
			if noCache && (st.RefHits != 0 || st.RefMisses != 0 || st.Held != 0 || st.Frames != st.Dispatched) {
				t.Fatalf("workers that do not cache were sent references, chains or held outputs: %+v", st)
			}
			if v.dialIn && st.RefValueBytes == 0 {
				t.Fatalf("no warm value was routed through the coordinator: %+v", st)
			}
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					if local.Confusion.Counts[i][j] != remote.Confusion.Counts[i][j] {
						t.Fatalf("confusion[%d][%d]: local %d, remote %d — remote execution changed the result",
							i, j, local.Confusion.Counts[i][j], remote.Confusion.Counts[i][j])
					}
				}
			}
			if len(local.FoldAccuracies) != len(remote.FoldAccuracies) {
				t.Fatalf("fold counts differ: %d vs %d", len(local.FoldAccuracies), len(remote.FoldAccuracies))
			}
			for i := range local.FoldAccuracies {
				if local.FoldAccuracies[i] != remote.FoldAccuracies[i] {
					t.Fatalf("fold %d accuracy: local %x, remote %x (not bit-identical)",
						i, local.FoldAccuracies[i], remote.FoldAccuracies[i])
				}
			}
			if local.PCAK != remote.PCAK {
				t.Fatalf("PCA k: local %d, remote %d", local.PCAK, remote.PCAK)
			}
		})
	}
}

// TestRemoteSurvivesWorkerKill composes the backend with the PR 2 failure
// machinery: a worker process is SIGKILLed mid-run, its lost attempts come
// back as TaskErrors, and the retry layer re-dispatches them onto the
// survivor — the run completes with the same confusion matrix as the
// in-process baseline.
func TestRemoteSurvivesWorkerKill(t *testing.T) {
	ds, err := BuildDataset(smallData(22))
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunCV(ModelRF, ds, fastCfg(22))
	if err != nil {
		t.Fatal(err)
	}

	// A small cache keeps the data plane active while ensuring resident
	// values are routinely lost to eviction as well as to the kill below.
	backend, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 2, Slots: 1, CacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	cfg := fastCfg(22)
	cfg.Runtime.Backend = backend
	cfg.Runtime.DefaultRetries = 3
	cfg.Runtime.DefaultBackoff = 1

	// Kill one worker once the run is demonstrably using the fleet. The
	// victim may or may not have an attempt in flight at that instant;
	// either way every subsequent dispatch must land on the survivor.
	done := make(chan struct{})
	defer close(done)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			select {
			case <-done:
				return
			default:
			}
			if backend.Stats().Dispatched >= 5 {
				_ = backend.KillWorker(0)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	remote, err := RunCV(ModelRF, ds, cfg)
	if err != nil {
		t.Fatalf("run must survive the worker kill: %v", err)
	}
	if n := backend.AliveWorkers(); n != 1 {
		t.Fatalf("AliveWorkers = %d after kill, want 1", n)
	}
	// Quiescent again: the kill drained attempts into Failed; nothing may be
	// double-counted into Completed (the PR 7 partition invariant).
	if st := backend.Stats(); st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("stats not a partition after worker kill: %+v", st)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if local.Confusion.Counts[i][j] != remote.Confusion.Counts[i][j] {
				t.Fatalf("confusion[%d][%d]: local %d, post-kill remote %d — recovery changed the result",
					i, j, local.Confusion.Counts[i][j], remote.Confusion.Counts[i][j])
			}
		}
	}
}

// TestRemoteHolderKillParity is the crash acceptance test of a holder: a
// worker holding values other workers consume is SIGKILLed mid-run and a
// replacement joins with an empty cache. What only the dead worker held is
// rebuilt from lineage or re-shipped by the coordinator, and the confusion
// matrix stays bit-identical to the in-process baseline.
func TestRemoteHolderKillParity(t *testing.T) {
	ds, err := BuildDataset(smallData(24))
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunCV(ModelRF, ds, fastCfg(24))
	if err != nil {
		t.Fatal(err)
	}

	// Three 1-slot workers: saturated holders routinely force consumers onto
	// other workers, so values cross between workers throughout.
	backend, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 3, Slots: 1, CacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	cfg := fastCfg(24)
	cfg.Runtime.Backend = backend
	cfg.Runtime.DefaultRetries = 3
	cfg.Runtime.DefaultBackoff = 1

	done := make(chan struct{})
	defer close(done)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			select {
			case <-done:
				return
			default:
			}
			if backend.Stats().Dispatched >= 5 {
				_ = backend.KillWorker(0)
				_, _ = backend.SpawnWorker()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	remote, err := RunCV(ModelRF, ds, cfg)
	if err != nil {
		t.Fatalf("run must survive losing a holder: %v", err)
	}
	st := backend.Stats()
	if st.RefValueBytes+st.Pulls+st.Recomputed == 0 {
		t.Fatalf("stats %+v: no value crossed between workers, came home or was rebuilt — the kill test proved nothing", st)
	}
	// Quiescent: outcomes partition, and the coordinator links carried it all.
	if st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("stats not a partition after holder kill: %+v", st)
	}
	if st.BytesSent == 0 || st.BytesRecv == 0 {
		t.Fatalf("stats %+v: coordinator-link byte counters must stay live", st)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if local.Confusion.Counts[i][j] != remote.Confusion.Counts[i][j] {
				t.Fatalf("confusion[%d][%d]: local %d, post-kill remote %d — holder recovery changed the result",
					i, j, local.Confusion.Counts[i][j], remote.Confusion.Counts[i][j])
			}
		}
	}
	for i := range local.FoldAccuracies {
		if local.FoldAccuracies[i] != remote.FoldAccuracies[i] {
			t.Fatalf("fold %d accuracy: local %x, remote %x (not bit-identical)",
				i, local.FoldAccuracies[i], remote.FoldAccuracies[i])
		}
	}
}

// TestRemoteKillThenRejoinParity is the re-admission acceptance test: a
// worker is SIGKILLed mid-run and a replacement joins the fleet while the
// run is still going — exactly what `worker -join` does after a restart.
// The replacement is a brand-new member (fresh id, empty cache), the run
// completes, and the confusion matrix stays bit-identical to the
// in-process baseline.
func TestRemoteKillThenRejoinParity(t *testing.T) {
	ds, err := BuildDataset(smallData(23))
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunCV(ModelRF, ds, fastCfg(23))
	if err != nil {
		t.Fatal(err)
	}

	backend, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 2, Slots: 1, CacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	cfg := fastCfg(23)
	cfg.Runtime.Backend = backend
	cfg.Runtime.DefaultRetries = 3
	cfg.Runtime.DefaultBackoff = 1

	// Kill w0 once the run is underway, then immediately re-admit a
	// replacement: the comeback must be a new member, not a resurrection.
	done := make(chan struct{})
	defer close(done)
	rejoined := make(chan string, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			select {
			case <-done:
				return
			default:
			}
			if backend.Stats().Dispatched >= 5 {
				_ = backend.KillWorker(0)
				id, err := backend.SpawnWorker()
				if err == nil {
					rejoined <- id
				}
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	remote, err := RunCV(ModelRF, ds, cfg)
	if err != nil {
		t.Fatalf("run must survive the kill-and-rejoin: %v", err)
	}
	select {
	case id := <-rejoined:
		if id == "w0" || id == "w1" {
			t.Fatalf("re-admitted worker reused id %q; re-admission must mint a fresh id", id)
		}
	default:
		t.Fatal("the replacement worker never joined")
	}
	if n := backend.AliveWorkers(); n != 2 {
		t.Fatalf("AliveWorkers = %d after rejoin, want 2 (survivor + replacement)", n)
	}
	st := backend.Stats()
	if st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("stats not a partition after kill+rejoin: %+v", st)
	}
	if st.Joined != 3 {
		t.Fatalf("Joined = %d, want 3 (two initial + one re-admission)", st.Joined)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if local.Confusion.Counts[i][j] != remote.Confusion.Counts[i][j] {
				t.Fatalf("confusion[%d][%d]: local %d, post-rejoin remote %d — re-admission changed the result",
					i, j, local.Confusion.Counts[i][j], remote.Confusion.Counts[i][j])
			}
		}
	}
	for i := range local.FoldAccuracies {
		if local.FoldAccuracies[i] != remote.FoldAccuracies[i] {
			t.Fatalf("fold %d accuracy: local %x, remote %x (not bit-identical)",
				i, local.FoldAccuracies[i], remote.FoldAccuracies[i])
		}
	}
}

func init() {
	// test_hold_ms(ms) occupies a worker's slot and stores nothing.
	exec.Register("test_hold_ms", func(args []any) (any, error) {
		time.Sleep(time.Duration(args[0].(int)) * time.Millisecond)
		return 0.0, nil
	})
}

// TestRemoteFleetForgetsFinishedRuns: three cross-validations share one
// fleet, each bit-identical to the in-process run; once their reports are
// dropped the collector releases the runtimes, and every member ends up
// holding nothing — in the coordinator's map and by its own report — with the
// stats still a partition.
func TestRemoteFleetForgetsFinishedRuns(t *testing.T) {
	ds, err := BuildDataset(smallData(28))
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunCV(ModelRF, ds, fastCfg(28))
	if err != nil {
		t.Fatal(err)
	}
	backend, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 2, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	for pass := 0; pass < 3; pass++ {
		cfg := fastCfg(28)
		cfg.Runtime.Backend = backend
		remote, err := RunCV(ModelRF, ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(local.Confusion.Counts, remote.Confusion.Counts) || !reflect.DeepEqual(local.FoldAccuracies, remote.FoldAccuracies) {
			t.Fatalf("pass %d: confusion %v and folds %x, local %v and %x", pass,
				remote.Confusion.Counts, remote.FoldAccuracies, local.Confusion.Counts, local.FoldAccuracies)
		}
	}
	if st := backend.Stats(); st.Held == 0 {
		t.Fatalf("stats %+v: nothing was held, nothing to forget", st)
	}

	// One slot-filling probe a member — they land on distinct members — asks
	// each what its cache holds.
	var mu sync.Mutex
	reported := map[string]int64{}
	backend.SetHook(func(s exec.Event) {
		mu.Lock()
		reported[s.Worker] = s.CacheBytes
		mu.Unlock()
	})
	probe := exec.NextSession()
	empty := func() bool {
		for _, w := range backend.Workers() {
			if w.ResidentBytes != 0 {
				return false
			}
		}
		mu.Lock()
		clear(reported)
		mu.Unlock()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies, _, err := backend.ExecuteChain([]*exec.Request{{Name: "test_hold_ms", NOut: 1, Args: []any{50}, Session: probe, TaskID: -1}})
				if err == nil {
					err = replies[0].Err
				}
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		for _, b := range reported {
			if b != 0 {
				return false
			}
		}
		return len(reported) == 2
	}
	deadline := time.Now().Add(5 * time.Second)
	for !empty() {
		if time.Now().After(deadline) {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("members %+v report %v cached bytes: the finished runs were not forgotten", backend.Workers(), reported)
		}
		runtime.GC()
	}
	if st := backend.Stats(); st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("stats not a partition at quiescence: %+v", st)
	}
}

// TestRemoteChainParity: the RF cross-validation rides chains — a whole tree
// a round trip — and ends bit-identical to the in-process run whatever a
// chain meets on the way: a roomy cache (where the frame count shows the
// chains are there), a 4 MB cache that evicts a member's input under it, a
// worker with no cache at all (every follower misses and goes back to the
// scheduler), and a worker killed while chains are in flight.
func TestRemoteChainParity(t *testing.T) {
	ds, err := BuildDataset(smallData(25))
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunCV(ModelRF, ds, fastCfg(25))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name    string
		cfg     exec.LoopbackConfig
		killAt  uint64 // freeze, then kill, worker 0 once this many requests were dispatched
		chained bool   // the run must use fewer than a third as many frames as requests
	}{
		{name: "roomy cache", cfg: exec.LoopbackConfig{Workers: 2, Slots: 1}, chained: true},
		{name: "4 MB cache", cfg: exec.LoopbackConfig{Workers: 2, Slots: 1, CacheMB: 4}},
		{name: "no cache", cfg: exec.LoopbackConfig{Workers: 2, Slots: 1, CacheMB: -1}},
		{name: "killed mid-chain", cfg: exec.LoopbackConfig{Workers: 2, Slots: 1}, killAt: 150},
	} {
		t.Run(v.name, func(t *testing.T) {
			backend, err := exec.SpawnLoopback(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer backend.Close()
			cfg := fastCfg(25)
			cfg.Runtime.Backend = backend
			done := make(chan struct{})
			defer close(done)
			if v.killAt > 0 {
				cfg.Runtime.DefaultRetries = 3
				cfg.Runtime.DefaultBackoff = 1
				go func() {
					// Freeze worker 0 (SIGSTOP), then kill it once Workers()
					// has reported it Inflight for a millisecond: frozen, it
					// cannot answer the frame it holds, so the kill loses it.
					// A tree body takes microseconds on this data; killed on
					// the fly, the worker is as likely as not idle or already
					// answered. The 50 ms bound keeps a pull stuck on the
					// frozen worker from hanging the test.
					var frozenAt time.Time
					busy := 0
					for {
						select {
						case <-done:
							return
						case <-time.After(200 * time.Microsecond):
						}
						w0 := backend.Workers()[0]
						if backend.Stats().Dispatched < v.killAt {
							continue
						}
						if frozenAt.IsZero() {
							if p, err := os.FindProcess(w0.Pid); err == nil {
								_ = p.Signal(syscall.SIGSTOP)
							}
							frozenAt = time.Now()
							continue
						}
						if busy++; w0.Inflight == 0 {
							busy = 0
						}
						if busy >= 5 || time.Since(frozenAt) > 50*time.Millisecond {
							_ = backend.KillWorker(0)
							return
						}
					}
				}()
			}
			remote, err := RunCV(ModelRF, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := backend.Stats()
			if st.Dispatched != st.Completed+st.Failed {
				t.Fatalf("stats not a partition at quiescence: %+v", st)
			}
			if v.killAt > 0 && st.Failed == 0 {
				t.Fatalf("stats %+v: the kill lost no request — it proved nothing", st)
			}
			if v.chained && 3*st.Frames >= st.Dispatched {
				t.Fatalf("%d frames for %d requests, want fewer than a third: the trees are not riding chains", st.Frames, st.Dispatched)
			}
			if !reflect.DeepEqual(local.Confusion.Counts, remote.Confusion.Counts) {
				t.Fatalf("confusion: local %v, remote %v", local.Confusion.Counts, remote.Confusion.Counts)
			}
			if len(local.FoldAccuracies) != len(remote.FoldAccuracies) {
				t.Fatalf("fold counts differ: %d vs %d", len(local.FoldAccuracies), len(remote.FoldAccuracies))
			}
			for i := range local.FoldAccuracies {
				if local.FoldAccuracies[i] != remote.FoldAccuracies[i] {
					t.Fatalf("fold %d accuracy: local %x, remote %x (not bit-identical)", i, local.FoldAccuracies[i], remote.FoldAccuracies[i])
				}
			}
			t.Logf("%d requests in %d frames, %d failed, %d miss retries", st.Dispatched, st.Frames, st.Failed, st.MissRetries)
		})
	}
}
