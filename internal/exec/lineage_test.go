package exec_test

// Held results through a real runtime: what the main program reads comes
// home when it reads it, once; what it never reads never moves; and a value
// whose only holder died is rebuilt from its producer's arguments.

import (
	"sync"
	"testing"
	"time"

	"taskml/internal/compss"
	"taskml/internal/exec"
	"taskml/internal/mat"
)

// endsAndRetries counts, per task, the End and Retry events it emitted.
type endsAndRetries struct {
	compss.NopObserver
	mu            sync.Mutex
	ends, retries map[int]int
	afterEnd      bool // a Retry arrived for a task that had ended
}

func (o *endsAndRetries) OnEnd(ev compss.Event) {
	o.mu.Lock()
	o.ends[ev.Task]++
	o.mu.Unlock()
}

func (o *endsAndRetries) OnRetry(ev compss.Event) {
	o.mu.Lock()
	o.retries[ev.Task]++
	o.afterEnd = o.afterEnd || o.ends[ev.Task] > 0
	o.mu.Unlock()
}

func ramp(rows, cols int) *mat.Dense {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	return m
}

// TestGetPullsOnce: a Get long after Barrier pulls the value, a second one
// does not, eight at once share one transfer, GetAll brings ten blocks home
// in one frame — and a Get that is already waiting when the task is
// dispatched gets the value in the reply, no pull at all.
func TestGetPullsOnce(t *testing.T) {
	r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rt := compss.New(compss.Config{Backend: r})
	scale := compss.Opts{Name: "scale", Exec: "test_scale_mat"}
	m := ramp(64, 64)

	f := rt.SubmitExec(scale, m, 2.0)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Held != 1 || st.Pulls != 0 || st.BytesRecv > 1024 {
		t.Fatalf("Stats = %+v after Barrier: want the output held and nothing home", st)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := rt.Get(f)
			if err != nil || v.(*mat.Dense).At(63, 63) != 2*m.At(63, 63) {
				t.Errorf("Get = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Pulls != 1 {
		t.Fatalf("Stats = %+v: eight concurrent Gets of one held future must pull once", st)
	}
	if _, err := rt.Get(f); err != nil || r.Stats().Pulls != 1 {
		t.Fatalf("a later Get pulled again: %v, %+v", err, r.Stats())
	}

	var blocks []*compss.Future
	for i := 0; i < 10; i++ {
		blocks = append(blocks, rt.SubmitExec(scale, m, float64(i)))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	vals, err := rt.GetAll(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got := v.(*mat.Dense).At(0, 1); got != float64(i) {
			t.Fatalf("block %d = %v", i, got)
		}
	}
	if st := r.Stats(); st.Pulls != 2 || st.Held != 11 {
		t.Fatalf("Stats = %+v: ten blocks on one holder are one pull frame", st)
	}

	// A reader known at dispatch: the gate keeps the task from running until
	// the Get is parked on it.
	release := make(chan struct{})
	gate := rt.Submit(compss.Opts{Name: "gate"}, func(*compss.TaskCtx, []any) (any, error) {
		<-release
		return 3.0, nil
	})
	awaited := rt.SubmitExec(scale, m, gate)
	go func() {
		time.Sleep(50 * time.Millisecond) // the Get below is waiting by then, wherever the gate runs
		close(release)
	}()
	if v, err := rt.Get(awaited); err != nil || v.(*mat.Dense).At(0, 1) != 3 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if st := r.Stats(); st.Pulls != 2 || st.Held != 11 {
		t.Fatalf("Stats = %+v: an awaited output comes home in its reply", st)
	}
	if st := r.Stats(); st.Dispatched != st.Completed+st.Failed || st.Failed != 0 {
		t.Fatalf("Stats = %+v, want a partition", st)
	}
}

// TestLineageAfterHolderDies: a two-task line whose outputs are held by the
// one worker; the worker is killed after Barrier and replaced. Get rebuilds
// the line — the consumer's lost input first — and observers see the reruns
// as Retries after the End, never a second End.
func TestLineageAfterHolderDies(t *testing.T) {
	r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	obs := &endsAndRetries{ends: map[int]int{}, retries: map[int]int{}}
	rt := compss.New(compss.Config{Backend: r, Observers: []compss.Observer{obs}})
	scale := compss.Opts{Name: "scale", Exec: "test_scale_mat"}
	m := ramp(32, 32)
	a := rt.SubmitExec(scale, m, 2.0)
	b := rt.SubmitExec(scale, a, 3.0)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Held != 2 {
		t.Fatalf("Stats = %+v, want both outputs held", st)
	}
	if err := r.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	for r.AliveWorkers() != 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := r.SpawnWorker(); err != nil {
		t.Fatal(err)
	}
	v, err := rt.Get(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*mat.Dense).At(31, 31); got != 6*m.At(31, 31) {
		t.Fatalf("rebuilt value = %v, want %v", got, 6*m.At(31, 31))
	}
	st := r.Stats()
	if st.Recomputed != 2 || st.Dispatched != st.Completed+st.Failed {
		t.Fatalf("Stats = %+v, want both producers recomputed, once each", st)
	}
	if _, err := rt.Get(a); err != nil || r.Stats().Recomputed != 2 {
		t.Fatalf("the input rebuilt on the way is home too: %v, %+v", err, r.Stats())
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.ends[a.TaskID()] != 1 || obs.ends[b.TaskID()] != 1 {
		t.Fatalf("ends = %v: a recomputation must never be a second End", obs.ends)
	}
	if obs.retries[a.TaskID()] != 1 || obs.retries[b.TaskID()] != 1 || !obs.afterEnd {
		t.Fatalf("retries = %v: each rerun is one Retry of its producer, after its End", obs.retries)
	}
}
