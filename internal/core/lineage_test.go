package core

import (
	"reflect"
	"sync"
	"testing"

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
	compss.NopObserver
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

func (o *treeOn) OnSubmit(ev compss.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
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
}

func (o *treeOn) OnEnd(ev compss.Event) {
	if ev.Name != "rf_join" {
		return
	}
	o.mu.Lock()
	o.ended[ev.Task] = true
	fold, root := o.rootFold[ev.Task]
	if root {
		o.running[fold]--
	}
	fire := root && !o.fired && ev.Worker == o.worker && o.predicting[fold] && o.running[fold] > 0
	o.fired = o.fired || fire
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
	rt := compss.New(cfg.runtimeConfig())
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
		cfg.Backend = backend
		cfg.Retries = 3
		cfg.RetryBackoff = 1
		var heldAtKill uint64
		cfg.Observers = []compss.Observer{newTreeOn(backend.Workers()[0].ID, func() {
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
		cfg.Backend = backend
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

// foldSpans records when each task started and ended, and which tasks open a
// fold's fit.
type foldSpans struct {
	compss.NopObserver
	mu      sync.Mutex
	gathers []int // ids of the rf_gather tasks, one a fold, in submission order
	start   map[int]compss.Event
	end     map[int]compss.Event
}

func (f *foldSpans) OnSubmit(ev compss.Event) {
	if ev.Name == "rf_gather" {
		f.mu.Lock()
		f.gathers = append(f.gathers, ev.Task)
		f.mu.Unlock()
	}
}

func (f *foldSpans) OnStart(ev compss.Event) {
	f.mu.Lock()
	f.start[ev.Task] = ev
	f.mu.Unlock()
}

func (f *foldSpans) OnEnd(ev compss.Event) {
	f.mu.Lock()
	f.end[ev.Task] = ev
	f.mu.Unlock()
}

// TestFoldsOverlap: RunCVReduced submits every fold before it scores any, so
// fold k+1's first task starts before fold k's last one ended — the main
// program no longer stops between them. Task ids grow with submission, and a
// fold's fit opens with its rf_gather.
func TestFoldsOverlap(t *testing.T) {
	ds, err := BuildDataset(smallData(27))
	if err != nil {
		t.Fatal(err)
	}
	spans := &foldSpans{start: map[int]compss.Event{}, end: map[int]compss.Event{}}
	cfg := fastCfg(27)
	cfg.Workers = 2
	cfg.Observers = []compss.Observer{spans}
	if _, err := RunCV(ModelRF, ds, cfg); err != nil {
		t.Fatal(err)
	}
	if len(spans.gathers) != cfg.Folds {
		t.Fatalf("%d rf_gather tasks, want one a fold (%d)", len(spans.gathers), cfg.Folds)
	}
	for k := 0; k+1 < len(spans.gathers); k++ {
		lo, hi := spans.gathers[k], spans.gathers[k+1]
		next := spans.start[hi]
		var last compss.Event
		for id := lo; id < hi; id++ {
			if ev, ok := spans.end[id]; ok && ev.Time.After(last.Time) {
				last = ev
			}
		}
		if !next.Time.Before(last.Time) {
			t.Fatalf("fold %d's first task started %v after fold %d's last (%s) ended: the folds run one after another",
				k+1, next.Time.Sub(last.Time), k, last.Name)
		}
	}
}
