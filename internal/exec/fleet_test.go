package exec_test

import (
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

// TestFleetListenRejoin exercises the coordinator listen mode: a dial-in
// worker with the right token becomes a fresh member, a wrong token is
// rejected before it can receive work, and a registration after a member
// died still gets a brand-new id.
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

	// Retire w0 and register again: the newcomer gets a fresh id, never
	// the dead member's.
	if err := r.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return r.AliveWorkers() == 1 })
	go func() { _ = exec.JoinCoordinator(addr, r.JoinToken(), exec.WorkerConfig{Slots: 1}) }()
	waitFor(t, 5*time.Second, func() bool { return r.AliveWorkers() == 2 })
	for _, w := range r.Workers() {
		if w.State == "alive" && w.ID != "w1" && w.ID != "w2" {
			t.Fatalf("re-admitted worker id = %q, want the fresh id w2", w.ID)
		}
	}
	st := r.Stats()
	if st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("partition broken: %+v", st)
	}
	r.Close()
	if err := <-joinErr; err != nil {
		t.Fatalf("JoinCoordinator should return nil when the coordinator closes, got %v", err)
	}
}

// TestFleetHookNarratesJoinAndDeath installs the hook on a running fleet: a
// spawned member arrives as a join, a killed one as a death with its cause,
// each with the alive totals after it, and Close retires the rest without an
// event. A join raced against a death from n alive members reports its own
// totals, never the other's: n+1 then n, or n−1 then n.
func TestFleetHookNarratesJoinAndDeath(t *testing.T) {
	r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	events := make(chan exec.Event, 16)
	r.SetHook(func(ev exec.Event) {
		if ev.Kind != exec.EventCache {
			events <- ev
		}
	})
	next := func() exec.Event {
		t.Helper()
		select {
		case ev := <-events:
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("no fleet event within 5s")
			return exec.Event{}
		}
	}

	id, err := r.SpawnWorker()
	if err != nil {
		t.Fatal(err)
	}
	if ev := next(); ev.Kind != exec.EventJoin || ev.Worker != id || ev.Workers != 3 || ev.Slots != 3 {
		t.Fatalf("after SpawnWorker: %+v, want a join of %s with 3 workers and 3 slots", ev, id)
	}
	if err := r.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	ev := next()
	if ev.Kind != exec.EventDead || ev.Worker != "w0" || ev.Reason == "" || ev.Workers != 2 || ev.Slots != 2 {
		t.Fatalf("after KillWorker(0): %+v, want w0 dead with a reason, 2 workers and 2 slots", ev)
	}

	const n = 2
	spawned := make(chan error, 1)
	go func() {
		_, err := r.SpawnWorker()
		spawned <- err
	}()
	if err := r.KillWorker(1); err != nil {
		t.Fatal(err)
	}
	if err := <-spawned; err != nil {
		t.Fatal(err)
	}
	totals := map[string]int{}
	for i := 0; i < 2; i++ {
		ev := next()
		totals[ev.Kind] = ev.Workers
	}
	if j, d := totals[exec.EventJoin], totals[exec.EventDead]; !(j == n+1 && d == n) && !(d == n-1 && j == n) {
		t.Fatalf("raced join and death report %d and %d workers, want %d and %d or %d and %d", j, d, n+1, n, n, n-1)
	}

	r.Close()
	select {
	case ev := <-events:
		t.Fatalf("Close sent %+v; it retires the fleet without an event", ev)
	case <-time.After(100 * time.Millisecond):
	}
}
