package exec_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskml/internal/exec"
)

// TestFleetJoinDuringDispatch races a mid-run SpawnWorker against a stream
// of in-flight dispatches: the joined member must get a fresh id, absorb
// part of the load, and the stats partition must hold at quiescence.
func TestFleetJoinDuringDispatch(t *testing.T) {
	r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const tasks = 24
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := r.Execute("test_sleep_ms", 1, []any{10}); err != nil {
				failures.Add(1)
			}
		}()
	}
	id, err := r.SpawnWorker()
	if err != nil {
		t.Fatalf("SpawnWorker during dispatch: %v", err)
	}
	if id != "w1" {
		t.Fatalf("joined worker id = %q, want the fresh id w1", id)
	}
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d attempts failed during a clean join", n)
	}
	var joinedDone uint64
	for _, w := range r.Workers() {
		if w.ID == id {
			joinedDone = w.Done
		}
	}
	if joinedDone == 0 {
		t.Fatal("joined worker received no attempts")
	}
	st := r.Stats()
	if st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("partition broken: dispatched %d != completed %d + failed %d",
			st.Dispatched, st.Completed, st.Failed)
	}
	if st.Joined != 2 || st.PeakWorkers != 2 {
		t.Fatalf("Joined = %d, PeakWorkers = %d, want 2 and 2", st.Joined, st.PeakWorkers)
	}
}

// TestFleetDrainWithInflight drains a worker while it is mid-attempt: the
// drain must return immediately, the in-flight attempt must complete (not
// fail), and once idle the worker must retire cleanly — Failed stays 0.
func TestFleetDrainWithInflight(t *testing.T) {
	r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := r.Execute("test_sleep_ms", 1, []any{80}); err != nil {
				failures.Add(1)
			}
		}()
	}
	// Both single-slot workers are busy once Inflight reaches 2.
	waitFor(t, 5*time.Second, func() bool {
		n := 0
		for _, w := range r.Workers() {
			n += w.Inflight
		}
		return n == 2
	})

	if err := r.Drain("w0"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Drain is asynchronous: w0 is draining (or already dead, if its attempt
	// just finished) but never accepts new placements.
	for _, w := range r.Workers() {
		if w.ID == "w0" && w.State == "alive" {
			t.Fatal("drained worker still reports alive")
		}
	}
	if err := r.Drain("w0"); err == nil || !strings.Contains(err.Error(), "cannot drain") {
		t.Fatalf("second Drain should reject a non-alive worker, got %v", err)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d in-flight attempts failed during a graceful drain", n)
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, w := range r.Workers() {
			if w.ID == "w0" {
				return w.State == "dead"
			}
		}
		return false
	})

	// The survivor keeps executing; the drained worker never fails anything.
	if _, wid, err := r.Execute("test_add", 1, []any{1.0, 2.0}); err != nil || wid != "w1" {
		t.Fatalf("post-drain Execute = worker %q, %v; want w1, nil", wid, err)
	}
	st := r.Stats()
	if st.Failed != 0 {
		t.Fatalf("graceful drain counted %d Failed; drains must not fail attempts", st.Failed)
	}
	if st.Dispatched != st.Completed {
		t.Fatalf("partition broken at quiescence: dispatched %d != completed %d", st.Dispatched, st.Completed)
	}
	if st.Left != 1 {
		t.Fatalf("Left = %d, want 1", st.Left)
	}
}

// TestFleetListenRejoin exercises the coordinator listen mode: a dial-in
// worker with the right token becomes a fresh member, a wrong token is
// rejected before it can receive work, and a retired member can re-register
// — always under a brand-new id.
func TestFleetListenRejoin(t *testing.T) {
	r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	addr, err := r.ListenForWorkers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if r.ListenAddr() != addr {
		t.Fatalf("ListenAddr = %q, want %q", r.ListenAddr(), addr)
	}

	// Wrong token: the connection must be dropped, not admitted.
	badDone := make(chan error, 1)
	go func() { badDone <- exec.JoinCoordinator(addr, "not-the-token", exec.WorkerConfig{}) }()
	select {
	case <-badDone: // rejected: the coordinator closed the connection
	case <-time.After(5 * time.Second):
		t.Fatal("wrong-token join neither admitted nor rejected")
	}
	if n := r.AliveWorkers(); n != 1 {
		t.Fatalf("%d alive workers after a rejected join, want 1", n)
	}

	// Right token: admitted as w1 (the listen-mode worker runs as an
	// in-process goroutine here; to the coordinator it is just a member).
	joinErr := make(chan error, 1)
	go func() { joinErr <- exec.JoinCoordinator(addr, r.JoinToken(), exec.WorkerConfig{Slots: 1}) }()
	waitFor(t, 5*time.Second, func() bool { return r.AliveWorkers() == 2 })
	var joined string
	for _, w := range r.Workers() {
		if w.State == "alive" && w.ID != "w0" {
			joined = w.ID
		}
	}
	if joined != "w1" {
		t.Fatalf("dial-in worker id = %q, want w1", joined)
	}
	if v, _, err := r.Execute("test_add", 1, []any{2.0, 3.0}); err != nil || v[0].(float64) != 5 {
		t.Fatalf("Execute across the joined fleet = %v, %v", v, err)
	}

	// Retire the dial-in member and re-register: the comeback gets a fresh
	// id, never w1 again.
	if err := r.Leave(joined); err != nil {
		t.Fatal(err)
	}
	if err := <-joinErr; err != nil {
		t.Fatalf("JoinCoordinator should return nil when the coordinator closes, got %v", err)
	}
	go func() { _ = exec.JoinCoordinator(addr, r.JoinToken(), exec.WorkerConfig{Slots: 1}) }()
	waitFor(t, 5*time.Second, func() bool { return r.AliveWorkers() == 2 })
	for _, w := range r.Workers() {
		if w.State == "alive" && w.ID != "w0" && w.ID != "w2" {
			t.Fatalf("re-admitted worker id = %q, want the fresh id w2", w.ID)
		}
	}
	st := r.Stats()
	if st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("partition broken: %+v", st)
	}
}
