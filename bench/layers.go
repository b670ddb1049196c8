package main

import "taskml/internal/compss"

// tracedLayers are the layers whose self-time share of a repetition is a
// per-layer metric; a span's layer is one of these.
var tracedLayers = []string{"preproc", "forest", "knn", "dsarray", "compss", "exec", "serve", "harness"}

// taskModules are the modules task-level time folds to.
var taskModules = []string{"preproc", "forest", "knn", "dsarray", "core"}

// observe returns a StatsObserver and the Config.Observers list holding it
// for a traced repetition, and neither otherwise: untraced runtimes carry no
// observer at all.
func observe(traced bool) (*compss.StatsObserver, []compss.Observer) {
	if !traced {
		return nil, nil
	}
	so := compss.NewStatsObserver()
	return so, []compss.Observer{so}
}

// scoring returns, for the serve_score tasks among stats, each batch's
// submit-to-resolved time in milliseconds and their sum in seconds.
func scoring(stats []compss.TaskStat) (batchMS []float64, total float64) {
	for _, t := range stats {
		if t.Name == "serve_score" {
			d := t.WaitDeps + t.Queued + t.Duration
			batchMS = append(batchMS, toMS(d))
			total += d.Seconds()
		}
	}
	return batchMS, total
}

// taskRunSeconds is the observer's summed body time of one repetition.
func (r *run) taskRunSeconds(rep int) float64 {
	total := 0.0
	for _, t := range r.tr.tasks {
		if t.Rep == rep {
			total += t.RunS
		}
	}
	return total
}

// repetitionLayers reports what the traced repetitions in reps say about
// each layer: self-time shares of the call tree (they sum to 1), task time
// and counts by module from the observer, and the runtime's own waiting.
// Counts and times are per repetition.
func (r *run) repetitionLayers(reps map[int]bool, n int, untraced, traced []float64) {
	shares := layerShares(r.tr.spans, reps)
	for _, l := range tracedLayers {
		r.layer[l+".self_share"] = shares[l]
	}

	perRep := float64(max(len(reps), 1))
	var tasks, run, queued, wait, stolen, failed float64
	modTasks, modRun := map[string]float64{}, map[string]float64{}
	for _, t := range r.tr.tasks {
		if !reps[t.Rep] {
			continue
		}
		tasks += float64(t.Count)
		run += t.RunS
		queued += t.QueuedS
		wait += t.WaitS
		stolen += float64(t.Stolen)
		failed += float64(t.Failed)
		modTasks[t.Module] += float64(t.Count)
		modRun[t.Module] += t.RunS
	}
	for _, m := range taskModules {
		r.layer[m+".tasks"] = modTasks[m] / perRep
		r.layer[m+".task_run_share"] = ratio(modRun[m], run)
	}
	r.layer["compss.tasks"] = tasks / perRep
	r.layer["compss.run_s"] = run / perRep
	r.layer["compss.queued_s"] = queued / perRep
	r.layer["compss.wait_deps_s"] = wait / perRep
	r.layer["compss.stolen_share"] = ratio(stolen, tasks)
	r.layer["compss.attempts_failed"] = failed / perRep

	r.layer["trace.overhead_share"] = overhead(traced, untraced)
	r.layer["harness.reps"] = float64(n)
	total := 0.0
	for _, w := range append(append([]float64(nil), untraced...), traced...) {
		total += w
	}
	r.layer["harness.measured_s"] = total
	r.note("traced %d of %d repetitions: median %.6g s traced, %.6g s untraced", len(traced), n, median(traced), median(untraced))
}
