package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"taskml/internal/compss"
	"taskml/internal/exec"
)

// treeOn calls kill once worker provably holds, alone, a tree that a
// submitted rf_predict will read and none has read yet. A tree is the output
// of its root, the last rf_join submitted before the next rf_bootstrap or
// rf_predict; rf_gather opens a fold. A predict reads every tree of its fold,
// so none can have run — alone or as a chain follower of a tree — while
// another tree of the fold has not ended: kill fires when a root ends on
// worker with its fold's predicts submitted and another of its roots still
// running. Nothing else reads a tree, so it was never pulled.
type treeOn struct {
	worker string
	kill   func()

	mu         sync.Mutex
	folds      int          // rf_gather tasks submitted
	lastJoin   int          // the rf_join submitted last, 0 once its tree's root is known
	rootFold   map[int]int  // root → fold
	ended      map[int]bool // rf_join tasks that ended
	running    map[int]int  // fold → its known roots that have not ended
	predicting map[int]bool // folds whose rf_predicts are submitted
	fired      bool
}

func newTreeOn(worker string, kill func()) *treeOn {
	return &treeOn{worker: worker, kill: kill, rootFold: map[int]int{}, ended: map[int]bool{},
		running: map[int]int{}, predicting: map[int]bool{}}
}

func (o *treeOn) Observe(ev compss.Event) {
	o.mu.Lock()
	fire := false
	switch {
	case ev.Kind == compss.EventSubmit:
		switch ev.Name {
		case "rf_gather":
			o.folds++
		case "rf_join":
			o.lastJoin = ev.Task
		case "rf_bootstrap", "rf_predict":
			if o.lastJoin != 0 {
				o.rootFold[o.lastJoin] = o.folds
				if !o.ended[o.lastJoin] {
					o.running[o.folds]++
				}
				o.lastJoin = 0
			}
			if ev.Name == "rf_predict" {
				o.predicting[o.folds] = true
			}
		}
	case ev.Kind == compss.EventEnd && ev.Name == "rf_join":
		o.ended[ev.Task] = true
		fold, root := o.rootFold[ev.Task]
		if root {
			o.running[fold]--
		}
		fire = root && !o.fired && ev.Worker == o.worker && o.predicting[fold] && o.running[fold] > 0
		o.fired = o.fired || fire
	}
	o.mu.Unlock()
	if fire {
		o.kill()
	}
}

// cvBoth runs the PCA reduction and then the RF and KNN cross-validations on
// one runtime, as the benchmark's pass does.
func cvBoth(t *testing.T, ds *Dataset, cfg PipelineConfig) (rf, kn *CVReport, tasks int) {
	t.Helper()
	cfg = cfg.withDefaults()
	rt := compss.New(cfg.Runtime)
	rx, k, err := ReduceWithPCA(rt, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rf, err = RunCVReduced(ModelRF, rt, rx, k, ds.Y, cfg); err != nil {
		t.Fatal(err)
	}
	if kn, err = RunCVReduced(ModelKNN, rt, rx, k, ds.Y, cfg); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	return rf, kn, rt.Graph().Len()
}

func sameReports(t *testing.T, what string, local, remote *CVReport) {
	t.Helper()
	if !reflect.DeepEqual(local.Confusion.Counts, remote.Confusion.Counts) {
		t.Fatalf("%s confusion: local %v, remote %v", what, local.Confusion.Counts, remote.Confusion.Counts)
	}
	if !reflect.DeepEqual(local.FoldAccuracies, remote.FoldAccuracies) {
		t.Fatalf("%s fold accuracies: local %x, remote %x (not bit-identical)", what, local.FoldAccuracies, remote.FoldAccuracies)
	}
}

// TestRemoteLineageParity: outputs stay on the worker that made them, so a
// worker that dies takes values with it that exist nowhere else. Worker 0 is
// SIGKILLed while it holds, alone, a tree that a submitted rf_predict will
// read (treeOn) — when a fold's tree ends there with another of the fold's
// trees still running — and what it held is rebuilt from lineage: confusion
// matrices bit-identical to the
// in-process run, producers recomputed, the stats still a partition. The
// second variant loses values the other way: a 1 MB cache evicts nearly
// everything it is asked to hold, and the pass still ends, identical, having
// rebuilt no task more than once.
func TestRemoteLineageParity(t *testing.T) {
	ds, err := BuildDataset(smallData(26))
	if err != nil {
		t.Fatal(err)
	}
	localRF, localKNN, _ := cvBoth(t, ds, fastCfg(26))

	t.Run("holder killed", func(t *testing.T) {
		backend, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 2, Slots: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer backend.Close()
		cfg := fastCfg(26)
		cfg.Runtime.Backend = backend
		cfg.Runtime.DefaultRetries = 3
		cfg.Runtime.DefaultBackoff = 1
		var heldAtKill uint64
		cfg.Runtime.Observers = []compss.Observer{newTreeOn(backend.Workers()[0].ID, func() {
			heldAtKill = backend.Stats().Held
			_ = backend.KillWorker(0)
		})}
		rf, kn, _ := cvBoth(t, ds, cfg)
		sameReports(t, "rf", localRF, rf)
		sameReports(t, "knn", localKNN, kn)
		st := backend.Stats()
		if heldAtKill == 0 {
			t.Fatalf("stats %+v: nothing was held when the worker died — the kill proved nothing", st)
		}
		if st.Recomputed == 0 {
			t.Fatalf("stats %+v: a holder died before its trees were read and nothing was recomputed", st)
		}
		if st.Dispatched != st.Completed+st.Failed {
			t.Fatalf("stats not a partition after losing a holder: %+v", st)
		}
		if n := backend.AliveWorkers(); n != 1 {
			t.Fatalf("AliveWorkers = %d after the kill, want 1", n)
		}
		t.Logf("%d held at the kill, %d recomputed, %d pulls, %d requests, %d failed", heldAtKill, st.Recomputed, st.Pulls, st.Dispatched, st.Failed)
	})

	t.Run("1 MB cache", func(t *testing.T) {
		// Five times the records: a fold's bootstraps alone overflow the cache.
		big := smallData(26)
		big.NNormal, big.NAF = 200, 40
		ds, err := BuildDataset(big)
		if err != nil {
			t.Fatal(err)
		}
		localRF, localKNN, tasks := cvBoth(t, ds, fastCfg(26))
		backend, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 2, Slots: 1, CacheMB: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer backend.Close()
		cfg := fastCfg(26)
		cfg.Runtime.Backend = backend
		rf, kn, remoteTasks := cvBoth(t, ds, cfg)
		sameReports(t, "rf", localRF, rf)
		sameReports(t, "knn", localKNN, kn)
		st := backend.Stats()
		if st.Recomputed == 0 {
			t.Fatalf("stats %+v: nothing was evicted before it was read — the cache proved nothing", st)
		}
		if remoteTasks != tasks {
			t.Fatalf("%d tasks remotely, %d in-process", remoteTasks, tasks)
		}
		if st.Recomputed > uint64(tasks) {
			t.Fatalf("stats %+v: %d recomputations for %d tasks — a task is rebuilt at most once", st, st.Recomputed, tasks)
		}
		if st.Dispatched != st.Completed+st.Failed || st.Failed != 0 {
			t.Fatalf("stats not a clean partition under eviction: %+v", st)
		}
		t.Logf("%d held, %d recomputed, %d pulls, %d miss retries, %d requests", st.Held, st.Recomputed, st.Pulls, st.MissRetries, st.Dispatched)
	})
}

// foldGate holds each fold's rf_gather — the task that opens the fold's fit
// — open in its Start event until the next fold's rf_gather has started, so a fold
// cannot finish before the next one is under way. A main program that waited
// for fold k before submitting fold k+1 would never start it: the wait times
// out and the fold is recorded.
type foldGate struct {
	patience time.Duration
	mu       sync.Mutex
	fold     map[int]int     // rf_gather task id → fold, in submission order
	started  []chan struct{} // closed when fold k's rf_gather starts
	late     []int           // folds whose successor did not start in time
}

func newFoldGate(folds int, patience time.Duration) *foldGate {
	g := &foldGate{patience: patience, fold: map[int]int{}, started: make([]chan struct{}, folds)}
	for k := range g.started {
		g.started[k] = make(chan struct{})
	}
	return g
}

func (g *foldGate) Observe(ev compss.Event) {
	if ev.Name != "rf_gather" {
		return
	}
	switch ev.Kind {
	case compss.EventSubmit:
		g.mu.Lock()
		g.fold[ev.Task] = len(g.fold)
		g.mu.Unlock()
	case compss.EventStart:
		g.mu.Lock()
		k, ok := g.fold[ev.Task]
		patience := g.patience
		g.mu.Unlock()
		if !ok || k >= len(g.started) {
			return
		}
		close(g.started[k])
		if k+1 == len(g.started) {
			return
		}
		select {
		case <-g.started[k+1]:
		case <-time.After(patience):
			g.mu.Lock()
			g.late = append(g.late, k)
			g.patience = 0 // one timeout is the verdict: let the run finish
			g.mu.Unlock()
		}
	}
}

// TestFoldsOverlap: RunCVReduced submits every fold before it scores any, so
// fold k+1's first task starts while fold k's first is still running — the
// main program no longer stops between folds. The gate makes the order a
// property of the runtime, not of wall stamps: with one more slot than there
// are folds, the held rf_gathers can never starve the one that releases
// them.
func TestFoldsOverlap(t *testing.T) {
	ds, err := BuildDataset(smallData(27))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(27)
	cfg.Runtime.Workers = cfg.Folds + 1
	gate := newFoldGate(cfg.Folds, 10*time.Second)
	cfg.Runtime.Observers = []compss.Observer{gate}
	if _, err := RunCV(ModelRF, ds, cfg); err != nil {
		t.Fatal(err)
	}
	if len(gate.fold) != cfg.Folds {
		t.Fatalf("%d rf_gather tasks, want one a fold (%d)", len(gate.fold), cfg.Folds)
	}
	if len(gate.late) > 0 {
		t.Fatalf("fold %d's rf_gather ran %v without fold %d's starting: the folds run one after another",
			gate.late[0], 10*time.Second, gate.late[0]+1)
	}
}
