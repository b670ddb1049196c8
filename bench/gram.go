package main

import (
	"time"

	"taskml/internal/compss"
	"taskml/internal/dsarray"
	"taskml/internal/exec"
	"taskml/internal/mat"
	"taskml/internal/par"
)

// The Gram workload's pinned shape: 8 row blocks of 300x256, 600 KB each,
// reduced at most gramPairs times on each side.
const (
	gramRows      = 2400
	gramCols      = 256
	gramBlockRows = 300
	gramPairs     = 64
	// gramLocalMS is what the in-process reduction takes on this box at its
	// usual speed; the remote wall is reported at that speed (runGram).
	gramLocalMS = 60.0
)

// splitMix fills an r x c matrix with SplitMix64 values in [-0.5, 0.5).
func splitMix(r, c int, seed int64) *mat.Dense {
	x := mat.New(r, c)
	s := uint64(seed) * 0x9e3779b97f4a7c15
	for i := range x.Data {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		x.Data[i] = float64(z>>11)/float64(1<<53) - 0.5
	}
	return x
}

// gramOut is one reduction: FromMatrix, Gram, Get, Barrier on a fresh runtime.
type gramOut struct {
	bits  uint64 // matrixBits of the result
	tasks int
	wall  time.Duration
	rep   int
	err   error
}

func (r *run) gramOnce(x *mat.Dense, brows int, be exec.Backend, traced bool) gramOut {
	tr := r.tracerFor(traced)
	so, obs := observe(traced)
	var out gramOut
	start := time.Now()
	out.rep = tr.repetition(r.o.workload, func() {
		var rt *compss.Runtime
		var xa *dsarray.Array
		var fut *compss.Future
		var v any
		tr.call("compss", "compss.New", func() { rt = compss.New(compss.Config{Backend: be, Observers: obs}) })
		tr.call("dsarray", "dsarray.FromMatrix", func() { xa = dsarray.FromMatrix(rt.Main(), x, brows, x.Cols) })
		tr.call("dsarray", "Array.Gram", func() { fut = xa.Gram() })
		tr.call("compss", "Runtime.Get", func() { v, out.err = rt.Get(fut) })
		if out.err == nil {
			tr.call("compss", "Runtime.Barrier", func() { out.err = rt.Barrier() })
		}
		if out.err == nil {
			out.bits = matrixBits(v.(*mat.Dense))
			out.tasks = rt.Graph().Len()
		}
	})
	out.wall = time.Since(start)
	if traced {
		r.tr.addTasks(out.rep, so.Stats())
	}
	return out
}

// runGram is gram_remote: the reduction on the pinned fleet, alternating
// one for one with the same reduction in-process, so that the ratio of the
// two survives a box that speeds up and slows down under the run.
func runGram(r *run) {
	rows, brows := gramRows, gramBlockRows
	if r.o.quick {
		rows, brows = 600, 150
	}
	par.SetLimit(1)
	var x *mat.Dense
	var fleet *exec.Remote
	closeFleet := func() {
		if fleet != nil {
			fleet.Close()
			fleet = nil
		}
	}
	defer closeFleet()
	var want uint64
	// Set-up is the input, the fleet, and one reduction on each side: the
	// first remote one registers wire types and opens the peer links.
	err := r.setUp(func() (err error) {
		x = splitMix(rows, gramCols, r.o.seed)
		if fleet, err = openFleet(fleetWorkers); err != nil {
			return err
		}
		local := r.gramOnce(x, brows, nil, false)
		remote := r.gramOnce(x, brows, fleet, false)
		want = local.bits
		if local.err != nil {
			return local.err
		}
		return remote.err
	}, closeFleet)
	if err != nil {
		return
	}
	if r.o.corrupt {
		want++
	}

	var localS, remoteS, tracedLocalS, tracedRemoteS []float64 // walls in seconds
	var deltas []execDelta
	reps := map[int]bool{}
	var localRun, remoteRun float64
	tasks := 0
	check := func(g gramOut, side string) {
		r.attempted++
		switch {
		case g.err != nil:
			r.fail(1, "%s reduction %d: %v", side, r.attempted, g.err)
		case g.bits != want:
			r.fail(1, "%s reduction %d: result hash %x, reference %x", side, r.attempted, g.bits, want)
		}
	}
	r.measure(10, gramPairs, 4, func(traced bool) time.Duration {
		local := r.gramOnce(x, brows, nil, traced)
		before := fleet.Stats()
		remote := r.gramOnce(x, brows, fleet, traced)
		if r.repeatOnce("a local reduction", local.err) || r.repeatOnce("a remote reduction", remote.err) {
			return local.wall + remote.wall
		}
		check(local, "local")
		check(remote, "remote")
		if traced {
			tracedLocalS = append(tracedLocalS, local.wall.Seconds())
			tracedRemoteS = append(tracedRemoteS, remote.wall.Seconds())
			deltas = append(deltas, deltaOf(before, fleet.Stats()))
			reps[remote.rep] = true
			localRun += r.taskRunSeconds(local.rep)
			remoteRun += r.taskRunSeconds(remote.rep)
		} else {
			localS = append(localS, local.wall.Seconds())
			remoteS = append(remoteS, remote.wall.Seconds())
			tasks = remote.tasks
		}
		return local.wall + remote.wall
	})
	r.checkFleet(fleet, fleetWorkers)
	closeFleet()

	s := r.timing("remote reduction wall", "ms", millis(remoteS))
	base := r.timing("in-process reduction wall", "ms", millis(localS))
	r.note("%-28s %12.6g ratio (base %.6g ms in-process)", "remote over local", ratio(s.P50, base.P50), base.P50)
	// The box drifts by a fifth between runs, and both sides of a pair drift
	// together: over twelve seeds the remote median spread 19.5%, the
	// in-process one 13.6%, their ratio 3 to 7%. So the remote wall is
	// reported as it would be with the in-process side at its usual speed.
	corrected := ratio(s.P50, base.P50) * gramLocalMS
	r.note("%-28s %12.6g ms   (remote over local x %.0f ms)", "remote wall, drift-corrected", corrected, gramLocalMS)
	r.e2e["latency_ms_p50"] = corrected
	r.e2e["throughput_per_s"] = ratio(float64(tasks), corrected/1e3)
	r.e2e["good_share"] = ratio(float64(r.attempted-r.failed), float64(r.attempted))

	if r.o.traced {
		r.repetitionLayers(reps, len(remoteS)+len(tracedRemoteS), remoteS, tracedRemoteS)
		r.execLayer(deltas)
		r.layer["exec.remote_over_local"] = ratio(median(tracedRemoteS), median(tracedLocalS))
		r.layer["exec.task_run_over_local"] = ratio(remoteRun, localRun)
	}
}
