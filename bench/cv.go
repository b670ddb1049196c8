package main

import (
	"fmt"
	"time"

	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/exec"
	"taskml/internal/mat"
	"taskml/internal/par"
)

// cvData is the cross-validation dataset: 500 Normal and 75 AF recordings,
// 1000x280 after balancing and featurising.
func cvData(seed int64, quick bool) core.DataConfig {
	c := core.DataConfig{
		NNormal: 500, NAF: 75, MinDurSec: 9, MaxDurSec: 15, NoiseStd: .35, AFSubtlety: .85,
		Feature: core.FeatureConfig{PadSec: 15, Window: 256, MaxFreqHz: 40, TimePool: 2},
		Seed:    seed,
	}
	if quick {
		c.NNormal, c.NAF = 40, 6
		c.Feature.MaxFreqHz = 10
	}
	return c
}

func cvPipeline(seed int64) core.PipelineConfig {
	c := core.TableIPipeline(seed)
	c.BlockRows = 100
	return c
}

// cvPasses is the most passes one run times: what fits in the run's seconds
// on a healthy box.
func cvPasses(remote bool) int {
	if remote {
		return 6
	}
	return 10
}

// passOut is what one pipeline pass produced and cost.
type passOut struct {
	confusion string // both pooled confusion matrices, rendered
	tasks     int
	wall      time.Duration
	rep       int // repetition id when traced, else -1
	err       error
}

// cvPass runs one pass — PCA reduction, then RF and KNN cross-validation —
// on a fresh runtime over be (nil is in-process).
func (r *run) cvPass(ds *core.Dataset, be exec.Backend, traced bool) passOut {
	tr := r.tracerFor(traced)
	cfg := cvPipeline(r.o.seed)
	so, obs := observe(traced)
	var out passOut
	start := time.Now()
	out.rep = tr.repetition(r.o.workload, func() {
		var rt *compss.Runtime
		tr.call("compss", "compss.New", func() { rt = compss.New(compss.Config{Backend: be, Observers: obs}) })
		var rf, kn *core.CVReport
		var rx *mat.Dense
		var k int
		var err error
		tr.call("preproc", "core.ReduceWithPCA", func() { rx, k, err = core.ReduceWithPCA(rt, ds, cfg) })
		if err == nil {
			tr.call("forest", "core.RunCVReduced(rf)", func() { rf, err = core.RunCVReduced(core.ModelRF, rt, rx, k, ds.Y, cfg) })
		}
		if err == nil {
			tr.call("knn", "core.RunCVReduced(knn)", func() { kn, err = core.RunCVReduced(core.ModelKNN, rt, rx, k, ds.Y, cfg) })
		}
		if err == nil {
			tr.call("compss", "Runtime.Barrier", func() { err = rt.Barrier() })
		}
		out.err = err
		if err == nil {
			out.confusion = fmt.Sprint("rf ", rf.Confusion.Counts, " knn ", kn.Confusion.Counts, " k ", k)
			out.tasks = rt.Graph().Len()
		}
	})
	out.wall = time.Since(start)
	if traced {
		r.tr.addTasks(out.rep, so.Stats())
	}
	return out
}

// runCV is cv_local and cv_remote: the same pass, in-process or on the
// pinned loopback fleet.
func runCV(r *run, remote bool) {
	var ds *core.Dataset
	var fleet *exec.Remote
	closeFleet := func() {
		if fleet != nil {
			fleet.Close()
			fleet = nil
		}
	}
	defer closeFleet()
	err := r.setUp(func() (err error) {
		if ds, err = core.BuildDataset(cvData(r.o.seed, r.o.quick)); err == nil && remote {
			fleet, err = openFleet(fleetWorkers)
		}
		return err
	}, closeFleet)
	if err != nil {
		return
	}
	var be exec.Backend
	if remote {
		be = fleet
	}
	// From here on parallelism belongs to the task runtime: one kernel
	// goroutine per body, as the cmd tools run.
	par.SetLimit(1)

	// The reference is an in-process pass: every measured pass, on either
	// backend, must reproduce its confusion matrices.
	var reference passOut
	var localRun float64
	refStart := time.Now()
	if remote {
		err := r.try("the reference pass", func() error {
			reference = r.cvPass(ds, nil, r.o.traced)
			return reference.err
		})
		if err != nil {
			r.fail(1, "reference pass: %v", err)
			return
		}
		localRun = r.taskRunSeconds(reference.rep)
	}
	refS := time.Since(refStart).Seconds()

	var walls, tracedWalls []float64
	var deltas []execDelta
	reps := map[int]bool{}
	tasks := 0
	r.measure(3, cvPasses(remote), 1, func(traced bool) time.Duration {
		var before exec.RemoteStats
		if remote {
			before = fleet.Stats()
		}
		p := r.cvPass(ds, be, traced)
		if r.repeatOnce("a pass", p.err) {
			return p.wall
		}
		r.attempted++
		switch {
		case p.err != nil:
			r.fail(1, "pass %d: %v", r.attempted, p.err)
		case reference.confusion == "":
			reference = p
		}
		want := reference.confusion
		if r.o.corrupt {
			want += " corrupted"
		}
		if p.err == nil && p.confusion != want {
			r.fail(1, "pass %d: confusion matrices %s, reference %s", r.attempted, p.confusion, want)
		}
		if traced {
			tracedWalls = append(tracedWalls, p.wall.Seconds())
			reps[p.rep] = true
			if remote {
				deltas = append(deltas, deltaOf(before, fleet.Stats()))
			}
		} else {
			walls = append(walls, p.wall.Seconds())
			tasks = p.tasks
		}
		return p.wall
	})
	if remote {
		r.checkFleet(fleet, fleetWorkers)
		closeFleet()
	}

	s := r.timing("pass wall, as measured", "ms", millis(walls))
	r.e2e["latency_ms_p50"] = r.usual(s.P50)
	r.e2e["throughput_per_s"] = ratio(float64(tasks), r.usual(s.P50)/1e3)
	r.e2e["good_share"] = ratio(float64(r.attempted-r.failed), float64(r.attempted))
	r.note("%d tasks a pass, reference %s (%.2f s)", reference.tasks, reference.confusion, refS)

	if r.o.traced {
		r.repetitionLayers(reps, len(walls)+len(tracedWalls), walls, tracedWalls)
		if remote {
			r.execLayer(deltas)
			r.layer["exec.remote_over_local"] = ratio(median(tracedWalls), reference.wall.Seconds())
			remoteRun := 0.0
			for rep := range reps {
				remoteRun += r.taskRunSeconds(rep)
			}
			r.layer["exec.task_run_over_local"] = ratio(remoteRun/float64(len(reps)), localRun)
		}
	}
}
