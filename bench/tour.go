package main

import (
	"fmt"
	"strings"
	"time"

	"taskml/internal/cluster"
	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/edge"
	"taskml/internal/mat"
	"taskml/internal/par"
	"taskml/internal/serve"
	"taskml/internal/sigproc"
)

// The layer tour is the part of a traced run that does not depend on the
// workload: every layer's public calls, timed alone on pinned shapes. It is
// where every per-layer metric in a time unit comes from, so each traced run
// carries the whole table, and a unit cost that moved between two commits
// can be told from a box that slowed (box.spin_ms_p50 moves with the latter).

// probe times fn n times as calls into the metric's layer and reports the
// median, in units of scale nanoseconds, over batch calls a sample.
func (r *run) probe(metric string, scale float64, n, batch int, fn func()) float64 {
	layer := metric[:strings.IndexByte(metric, '.')]
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		r.tr.call(layer, metric, func() {
			for j := 0; j < batch; j++ {
				fn()
			}
		})
		xs[i] = float64(time.Since(start).Nanoseconds()) / scale / float64(batch)
	}
	r.layer[metric] = median(xs)
	return r.layer[metric]
}

const (
	perMS = 1e6
	perUS = 1e3
)

func (r *run) tour() {
	par.SetLimit(1) // kernels as a task body runs them: one goroutine each
	start := time.Now()
	r.tr.repetition("tour", func() {
		r.tourKernels()
		r.box.sample()
		r.tourCompss()
		r.box.sample()
		if err := r.try("the tour's serving stop", r.tourServing); err != nil {
			r.fail(1, "tour: serving: %v", err)
		}
		r.box.sample()
		if err := r.try("the tour's exec stop", r.tourExec); err != nil {
			r.fail(1, "tour: exec: %v", err)
		}
		r.box.sample()
		if err := r.try("the tour's graph stop", r.tourGraph); err != nil {
			r.fail(1, "tour: graph: %v", err)
		}
		r.box.sample()
	})
	r.note("layer tour took %.2f s", time.Since(start).Seconds())
}

// tourKernels times mat on the workloads' own shapes and the in-process
// Gram reduction that gram_remote alternates with.
func (r *run) tourKernels() {
	a, b := splitMix(256, 256, 1), splitMix(256, 256, 2)
	r.probe("mat.gemm256_ms", perMS, 7, 1, func() { mat.Mul(a, b) })
	blk := splitMix(gramBlockRows, gramCols, 3)
	r.probe("mat.mulatb_300x256_ms", perMS, 7, 1, func() { mat.MulAtB(blk, blk) })
	n := 280
	if r.o.quick {
		n = 40
	}
	g := splitMix(n, n, 4)
	sym := mat.MulAtB(g, g)
	r.probe("mat.eigsym280_ms", perMS, 2, 1, func() {
		if _, _, err := mat.EigSym(sym); err != nil {
			r.fail(1, "tour: EigSym: %v", err)
		}
	})
	r.note("mat: gemm256 is %.1f Mflop over %.1f MB, mulatb 300x256 %.1f Mflop over %.1f MB (bytes computed from shapes, not measured)",
		2*256*256*256/1e6, 3*256*256*8/1e6, 2*300*256*256/1e6, (300*256+256*256)*8/1e6)

	x := splitMix(gramRows, gramCols, r.o.seed)
	xs := make([]float64, 5)
	for i := range xs {
		g := r.gramOnce(x, gramBlockRows, nil, false)
		if g.err != nil {
			r.fail(1, "tour: local Gram: %v", g.err)
		}
		xs[i] = g.wall.Seconds() * 1e3
	}
	r.layer["dsarray.gram_local_ms"] = median(xs)
}

// tourCompss times the storm's shapes, submission alone, one Submit+Get,
// and what an attached StatsObserver adds.
func (r *run) tourCompss() {
	shapes := stormShapes(r.o.quick)
	walls := make([][]float64, len(shapes))
	for round := 0; round < 3; round++ {
		err := r.try("a tour round", func() error {
			ws, _, err := r.stormRound(shapes, false)
			for i, w := range ws {
				walls[i] = append(walls[i], w.Seconds())
			}
			return err
		})
		if err != nil {
			r.fail(1, "tour: %v", err)
		}
	}
	for i, sh := range shapes {
		r.layer["compss."+sh.name+"_tasks_per_s"] = ratio(float64(sh.tasks), median(walls[i]))
	}

	fanout := func(obs []compss.Observer) (submit, total time.Duration) {
		rt := compss.New(compss.Config{Observers: obs})
		start := time.Now()
		for i := 0; i < stormFanout; i++ {
			rt.Submit(noop, one)
		}
		submit = time.Since(start)
		if err := rt.Barrier(); err != nil {
			r.fail(1, "tour: fan-out: %v", err)
		}
		return submit, time.Since(start)
	}
	var submitNS, plain, observed []float64
	for i := 0; i < 5; i++ {
		s, t := fanout(nil)
		submitNS = append(submitNS, float64(s.Nanoseconds())/stormFanout)
		plain = append(plain, t.Seconds())
		_, t = fanout([]compss.Observer{compss.NewStatsObserver()})
		observed = append(observed, t.Seconds())
	}
	r.layer["compss.submit_ns_per_task"] = median(submitNS)
	r.layer["compss.observer_overhead_share"] = overhead(observed, plain)

	us, err := submitGets(compss.New(compss.Config{}), 2000, nil)
	if err != nil {
		r.fail(1, "tour: %v", err)
	}
	r.layer["compss.submit_get_us_p50"] = median(us)
	if p99, ok := tail(us, 0.99); ok {
		r.layer["compss.submit_get_p99_over_p50"] = ratio(p99, median(us))
	}
}

// tourServing times one analysis window through sigproc, core and edge, and
// the serving calls on a light session: 256 streams pushed in lock-step with
// nothing else contending, so the figures are unit costs, not latencies
// under load.
func (r *run) tourServing() error {
	obs := compss.NewStatsObserver()
	rt := compss.New(compss.Config{Observers: []compss.Observer{obs}})
	model, err := trainServeModel(rt, r.o.seed)
	if err != nil {
		return err
	}
	const pushes = 5
	win, hop := serveWindow().WindowSamples(), serveWindow().StrideSamples()
	pool := signalPool(win+(pushes-1)*hop, r.o.seed)
	window := pool[0][:win]

	spec := sigproc.SpectrogramConfig{Fs: serveFs, WindowSize: model.Feat.Window}
	r.probe("sigproc.spectrogram800_us", perUS, 20, 50, func() {
		if _, _, _, err := sigproc.Spectrogram(window, spec); err != nil {
			r.fail(1, "tour: spectrogram: %v", err)
		}
	})
	var feats []float64
	r.probe("core.featurize_us", perUS, 20, 50, func() { feats, err = model.Featurize(window, serveFs) })
	if err != nil {
		return err
	}
	r.probe("core.classify_us", perUS, 20, 50, func() { _, err = model.Classify(feats) })
	if err != nil {
		return err
	}
	featurize, classify := model.Edge()
	windows := 0
	r.probe("edge.run_us_per_window", perUS, 8, 1, func() {
		for _, sig := range pool[:8] {
			events, _, runErr := edge.Run(serveWindow(), featurize, classify, sig)
			if runErr != nil {
				err = runErr
			}
			windows = 8 * len(events)
		}
	})
	if err != nil {
		return err
	}
	r.layer["edge.run_us_per_window"] /= float64(windows)

	srv, err := serve.New(rt, serve.Config{
		Window: serveWindow(), Score: core.ServeScorer(rt.Main(), model),
		SLO: serveSLO, MaxBatch: serveMaxBatch, MaxDelay: serveMaxDelay, StreamBuffer: serveBuffer,
	})
	if err != nil {
		return err
	}
	const streams = 256
	handles := make([]*serve.Stream, streams)
	var admitUS, pushUS []float64
	timed := func(into *[]float64, name string, fn func()) {
		start := time.Now()
		r.tr.call("serve", name, fn)
		*into = append(*into, toUS(time.Since(start)))
	}
	for k := 0; k < pushes && err == nil; k++ {
		for i := range handles {
			if k == 0 {
				timed(&admitUS, "Server.Admit", func() { handles[i], err = srv.Admit() })
				if err != nil {
					break
				}
			}
			lo, hi := pushSamples(k, win, hop)
			sig := pool[i%len(pool)]
			timed(&pushUS, "Stream.Push", func() { err = handles[i].Push(sig[lo:hi]...) })
			if err != nil {
				break
			}
		}
		srv.Flush()
		srv.WaitIdle()
	}
	m := srv.Metrics()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.layer["serve.admit_us_p50"] = median(admitUS)
	r.layer["serve.push_us_p50"] = median(pushUS)
	if p99, ok := tail(pushUS, 0.99); ok {
		r.layer["serve.push_us_p99"] = p99
	}
	batchMS, total := scoring(obs.Stats())
	r.layer["serve.batch_score_ms_p50"] = median(batchMS)
	r.layer["serve.score_us_per_window"] = ratio(total*1e6, float64(m.Scored))
	// A serving workload left its own loaded figure here; relate it to this one.
	r.layer["serve.score_us_over_probe"] = ratio(r.layer["serve.score_us_over_probe"], r.layer["serve.score_us_per_window"])
	return nil
}

// tourExec times the wire alone: one worker, requests sent straight through
// Remote.Execute to an echo body, a 32x32 block for the round trip and a
// 4 MB matrix for bulk transfer.
func (r *run) tourExec() error {
	start := time.Now()
	fleet, err := openFleet(1)
	if err != nil {
		return err
	}
	defer fleet.Close()
	r.layer["exec.spawn_s"] = time.Since(start).Seconds()

	echo := func(m *mat.Dense) {
		vals, _, execErr := fleet.Execute("bench_echo", 1, []any{m})
		if execErr == nil && matrixBits(vals[0].(*mat.Dense)) != matrixBits(m) {
			execErr = fmt.Errorf("echo returned a different matrix")
		}
		if execErr != nil {
			err = execErr
		}
	}
	small := splitMix(32, 32, 5)
	echo(small) // registers wire types on both ends
	rtt := make([]float64, 1200)
	if r.o.quick {
		rtt = rtt[:100]
	}
	for i := range rtt {
		t0 := time.Now()
		r.tr.call("exec", "Remote.Execute(32x32)", func() { echo(small) })
		rtt[i] = toUS(time.Since(t0))
	}
	r.layer["exec.rtt_us_p50"] = median(rtt)
	if p99, ok := tail(rtt, 0.99); ok {
		r.layer["exec.rtt_us_p99"] = p99
	}
	big := splitMix(512, 1024, 6) // 4 MiB of float64
	ms := r.probe("exec.bulk_mb_per_s", perMS, 3, 1, func() { echo(big) })
	// The matrix crosses the wire once each way; bytes are computed, not counted.
	r.layer["exec.bulk_mb_per_s"] = ratio(2*float64(len(big.Data))*8/1e6, ms/1e3)
	r.checkFleet(fleet, 1)
	return err
}

// tourGraph captures the task graph of a small RF cross-validation and
// replays it on a 16-node cluster model: the path the paper's figures are
// regenerated through.
func (r *run) tourGraph() error {
	x := splitMix(200, 16, 7)
	y := make([]int, x.Rows)
	for i := range y {
		if x.At(i, 0) > 0 {
			y[i] = 1
		}
	}
	rt := compss.New(compss.Config{})
	var err error
	r.tr.call("forest", "core.RunCVReduced(rf)", func() {
		_, err = core.RunCVReduced(core.ModelRF, rt, x, x.Cols, y, cvPipeline(r.o.seed))
	})
	if err != nil {
		return err
	}
	if err := rt.Barrier(); err != nil {
		return err
	}
	g := rt.Graph()
	r.layer["graph.tasks_captured"] = float64(g.Len())
	r.probe("cluster.replay_ms", perMS, 3, 1, func() {
		if _, schedErr := cluster.ScheduleGraph(g, cluster.MareNostrum4(16)); schedErr != nil {
			err = schedErr
		}
	})
	return err
}
