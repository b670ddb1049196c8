package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/dsarray"
	"taskml/internal/ecg"
	"taskml/internal/edge"
	"taskml/internal/forest"
	"taskml/internal/mat"
	"taskml/internal/par"
	"taskml/internal/serve"
)

// The serving workloads' pinned recipe: cmd/serve's model and batcher, with
// a 1 s stride so that every stream offers one window a second.
const (
	serveFs          = 100.0
	serveWindowSec   = 8.0
	serveStrideSec   = 1.0
	serveAlarmAfter  = 2
	serveSLO         = 250 * time.Millisecond
	serveMaxBatch    = 64
	serveMaxDelay    = 5 * time.Millisecond
	serveBuffer      = 4
	serveTrees       = 15
	serveTrainPer    = 40
	servePool        = 32
	steadyStreams    = 4000  // 4k windows/s: an eighth of what this box scores (about 30k/s)
	overloadStreams  = 24000 // 24k windows/s at the peak: the heaviest load whose results repeat (README.md)
	overloadArrivals = 0.4   // share of the run over which the overload's streams arrive
)

func serveWindow() edge.Config {
	return edge.Config{Fs: serveFs, WindowSec: serveWindowSec, StrideSec: serveStrideSec,
		AlarmAfter: serveAlarmAfter, PositiveLabel: core.LabelAF}
}

// trainServeModel fits the deployed forest on exact analysis windows cut
// from synthetic recordings: cmd/serve's recipe.
func trainServeModel(rt *compss.Runtime, seed int64) (*core.ServeModel, error) {
	feat := core.FeatureConfig{PadSec: serveWindowSec, Window: 128, MaxFreqHz: 30, TimePool: 2}
	gen := ecg.NewGenerator(ecg.GenConfig{
		Fs: serveFs, Seed: seed, MinDurSec: serveWindowSec + 1, MaxDurSec: serveWindowSec + 6,
		NoiseStd: 0.05, AFSubtlety: 0.05,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	var rows [][]float64
	var labels []int
	for _, class := range []ecg.Class{ecg.Normal, ecg.AF} {
		for i := 0; i < serveTrainPer; i++ {
			rec := gen.Record(class)
			win := int(serveWindowSec * rec.Fs)
			at := rng.Intn(len(rec.Signal) - win)
			f, err := feat.Features(ecg.Record{Signal: rec.Signal[at : at+win], Fs: rec.Fs})
			if err != nil {
				return nil, err
			}
			rows = append(rows, f)
			label := core.LabelNormal
			if class == ecg.AF {
				label = core.LabelAF
			}
			labels = append(labels, label)
		}
	}
	x := mat.NewFromRows(rows)
	chunk := max(len(rows)/4, 1)
	xa := dsarray.FromMatrix(rt.Main(), x, chunk, x.Cols)
	ya := dsarray.FromLabels(rt.Main(), labels, chunk)
	rf := &forest.RandomForest{Params: forest.Params{NEstimators: serveTrees, Seed: seed}}
	if err := rf.Fit(xa, ya); err != nil {
		return nil, err
	}
	nodes, err := rf.Trees(rt.Main())
	if err != nil {
		return nil, err
	}
	return &core.ServeModel{Feat: feat, Trees: nodes}, nil
}

// signalPool builds servePool paroxysmal recordings of exactly samples
// samples whose AF onset varies between 35% and 65% in; streams share them
// read-only.
func signalPool(samples int, seed int64) [][]float64 {
	sec := float64(samples) / serveFs
	pool := make([][]float64, servePool)
	for i := range pool {
		normal := sec * (0.35 + 0.3*float64(i)/float64(servePool-1))
		gen := ecg.NewGenerator(ecg.GenConfig{Fs: serveFs, Seed: seed + 100 + int64(i), NoiseStd: 0.05, AFSubtlety: 0.05})
		// The generator rounds durations down; ask for a second more and cut.
		rec, _ := gen.Paroxysmal(normal, sec-normal+1)
		pool[i] = rec.Signal[:samples:samples]
	}
	return pool
}

// push is one entry of the open-loop schedule: stream's k-th push, due at
// due after the session starts whatever the server is doing by then.
type push struct {
	due    time.Duration
	stream int32
	k      int32
}

// schedule lays out n streams of pushes pushes each, one stride apart, with
// stream i starting i/n of the way through arrival, in due order. Stream i
// replays pool signal signal[i], drawn from seed.
func schedule(n, pushes int, arrival, stride time.Duration, seed int64) (sched []push, signal []int) {
	rng := rand.New(rand.NewSource(seed + 7))
	signal = make([]int, n)
	sched = make([]push, 0, n*pushes)
	for i := 0; i < n; i++ {
		signal[i] = rng.Intn(servePool)
		start := startOf(i, n, arrival)
		for k := 0; k < pushes; k++ {
			sched = append(sched, push{due: start + time.Duration(k)*stride, stream: int32(i), k: int32(k)})
		}
	}
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].due < sched[b].due })
	return sched, signal
}

// startOf is when stream i of n is due to start: i/n of the way through arrival.
func startOf(i, n int, arrival time.Duration) time.Duration {
	return time.Duration(float64(arrival) * float64(i) / float64(n))
}

// pushSamples is the range of its stream's signal that push k carries: a
// whole window first, a stride each time after.
func pushSamples(k, window, stride int) (lo, hi int) {
	if k == 0 {
		return 0, window
	}
	lo = window + (k-1)*stride
	return lo, lo + stride
}

// pushOf is the index of the push that carries sample index end-1, given
// that the first push carries a whole window and every later one a stride.
func pushOf(end, window, stride int) int {
	if end <= window {
		return 0
	}
	return (end - window + stride - 1) / stride
}

// fired is one alarm as OnAlarm saw it.
type fired struct {
	id  int // server-assigned stream id
	end int // sample index past the alarm window
	at  time.Time
}

// serveFixture is what set-up builds: the signals with their reference
// alarms, the schedule, and a server ready to admit.
type serveFixture struct {
	rt     *compss.Runtime
	obs    *compss.StatsObserver // traced runs only
	pool   [][]float64
	refEnd []int // per pool signal: sample index past the reference alarm window, -1 for none
	sched  []push
	signal []int
	srv    *serve.Server

	mu     sync.Mutex
	alarms []fired
	// The deepest queues the server's Hook samples showed (traced runs only).
	inflightMax, pendingMax int
}

// runServe is serve_steady and serve_overload: one open-loop session.
func runServe(r *run, overload bool) {
	par.SetLimit(1)
	streams, arrivalShare := steadyStreams, 0.0
	if overload {
		streams, arrivalShare = overloadStreams, overloadArrivals
	}
	stride := time.Duration(serveStrideSec * float64(time.Second))
	if r.o.quick {
		streams /= 20
		stride /= 4 // replayed four times faster than recorded
	}
	// Everything due falls inside the run's seconds: arrivals first, then
	// each stream's pushes, one stride apart.
	arrival := time.Duration(arrivalShare * r.o.seconds * float64(time.Second))
	if !overload {
		arrival = stride // steady: phases spread over one stride
	}
	pushes := max(int((time.Duration(r.o.seconds*float64(time.Second))-arrival)/stride), 3)
	win, hop := serveWindow().WindowSamples(), serveWindow().StrideSamples()
	samples := win + (pushes-1)*hop

	var fx *serveFixture
	err := r.setUp(func() (err error) {
		fx, err = r.buildServe(streams, pushes, arrival, stride, samples)
		return err
	}, func() {
		if fx != nil && fx.srv != nil {
			fx.srv.Close()
		}
	})
	if err != nil {
		return
	}
	if r.o.corrupt {
		for i := range fx.refEnd {
			fx.refEnd[i] += hop
		}
	}
	// The session: one goroutine walks the schedule. A push is never issued
	// before it is due; how long after is the driver's lateness.
	tr := r.tr
	handles := make([]*serve.Stream, streams)
	idOf := make([]int, 0, streams) // server stream id -> stream index
	lateMS := make([]float64, 0, len(fx.sched))
	setupTasks := 0 // the observer has seen the model's training already
	if r.o.traced {
		setupTasks = len(fx.obs.Stats())
	}
	selfStart, _ := cpuSeconds()
	t0 := time.Now()
	tr.repetition(r.o.workload, func() {
		for _, p := range fx.sched {
			due := t0.Add(p.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			lateMS = append(lateMS, toMS(time.Since(due)))
			i := int(p.stream)
			if p.k == 0 {
				var st *serve.Stream
				var err error
				tr.call("serve", "Server.Admit", func() { st, err = fx.srv.Admit() })
				var refused *serve.CapacityError
				switch {
				case err == nil:
					handles[i] = st
					idOf = append(idOf, i)
				case !errors.As(err, &refused):
					r.fail(1, "admit: %v", err)
				}
			}
			st := handles[i]
			if st == nil {
				continue // refused at the door: its pushes are offered load that was turned away
			}
			sig := fx.pool[fx.signal[i]]
			lo, hi := pushSamples(int(p.k), win, hop)
			var err error
			tr.call("serve", "Stream.Push", func() { err = st.Push(sig[lo:hi]...) })
			if err != nil {
				r.fail(1, "push: %v", err)
			}
		}
		tr.call("serve", "Server.Flush", fx.srv.Flush)
		tr.call("serve", "Server.WaitIdle", fx.srv.WaitIdle)
	})
	wall := time.Since(t0)
	selfEnd, _ := cpuSeconds()
	m := fx.srv.Metrics()
	if err := fx.srv.Close(); err != nil {
		r.fail(1, "close: %v", err)
	}

	// Outputs. A stream that lost no window must raise exactly the alarm
	// edge.Run raises on its signal; an expected alarm is delivered when some
	// alarm fires for its stream within the SLO of the reference window's
	// last sample being due.
	dueOf := func(stream, end int) time.Time { // when the push carrying sample end-1 was due
		return t0.Add(startOf(stream, streams, arrival) + time.Duration(pushOf(end, win, hop))*stride)
	}
	// OnAlarm runs after the server has let go of its lock, so the last
	// callbacks may still be on their way when WaitIdle returns: wait for as
	// many as Metrics counted.
	var alarms []fired
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		fx.mu.Lock()
		alarms = fx.alarms
		fx.mu.Unlock()
		if int64(len(alarms)) >= m.Alarms || time.Now().After(deadline) {
			break
		}
	}
	if int64(len(alarms)) != m.Alarms {
		r.fail(1, "OnAlarm was called %d times for %d alarms", len(alarms), m.Alarms)
	}
	firstAlarm := map[int]fired{}
	var latMS []float64
	for _, f := range alarms {
		i := idOf[f.id]
		due := dueOf(i, f.end)
		latMS = append(latMS, toMS(f.at.Sub(due)))
		if _, seen := firstAlarm[i]; !seen {
			firstAlarm[i] = f
		}
	}
	expected, delivered, mismatched := 0, 0, 0
	for i := 0; i < streams; i++ {
		ref := fx.refEnd[fx.signal[i]]
		f, alarmed := firstAlarm[i]
		if ref >= 0 {
			expected++
			if alarmed {
				if f.at.Sub(dueOf(i, ref)) <= serveSLO {
					delivered++
				}
			}
		}
		if st := handles[i]; st != nil && st.Stats().Shed == 0 && m.ScoreErrors == 0 {
			got := -1
			if alarmed {
				got = f.end
			}
			if got != ref {
				mismatched++
				if mismatched <= 3 {
					r.fail(0, "stream %d (signal %d): alarm window ends at sample %d, edge.Run's at %d", i, fx.signal[i], got, ref)
				}
			}
		}
	}
	r.attempted = int64(streams * pushes)
	r.failed += m.ScoreErrors + int64(mismatched*pushes)
	if m.ScoreErrors > 0 {
		r.fail(0, "%d windows lost to scoring errors", m.ScoreErrors)
	}
	if len(latMS) == 0 {
		r.fail(1, "no alarm fired: nothing to time")
	}

	s := r.timing("alarm latency from due", "ms", latMS)
	p99, hasP99 := tail(latMS, 0.99)
	if hasP99 {
		r.note("%-28s %12.6g ms", "alarm latency p99", p99)
	}
	r.note("%d of %d expected alarms within %v; %d streams offered, %d admitted, %d refused", delivered, expected, serveSLO, streams, m.Admitted, m.Rejected)
	r.note("%d windows offered, %d cut, %d scored, %d shed, %d scoring errors, %d batches in %.2f s", streams*pushes, m.Windows, m.Scored, m.Shed, m.ScoreErrors, m.Batches, wall.Seconds())
	late := summarize(lateMS)
	r.note("driver lateness: median %.3f ms, q3 %.3f ms", late.P50, late.Q3)
	r.e2e["latency_ms_p50"] = s.P50
	r.e2e["throughput_per_s"] = ratio(float64(m.Scored), wall.Seconds())
	r.e2e["good_share"] = ratio(float64(delivered), float64(expected))

	r.box.sample()
	if !r.o.traced {
		return
	}
	stats := fx.obs.Stats()[setupTasks:]
	r.tr.addTasks(r.tr.rep, stats)
	r.repetitionLayers(map[int]bool{r.tr.rep: true}, 1, nil, []float64{wall.Seconds()})
	lateAsc := sorted(lateMS)
	isLate := sort.SearchFloat64s(lateAsc, 1)
	r.layer["serve.driver_late_share"] = ratio(float64(len(lateAsc)-isLate), float64(len(lateAsc)))
	r.layer["serve.driver_late_p99_over_slo"] = quantile(lateAsc, 0.99) / (toMS(serveSLO))
	r.layer["serve.batches"] = float64(m.Batches)
	r.layer["serve.batch_size_mean"] = ratio(float64(m.Scored+m.ScoreErrors), float64(m.Batches))
	r.layer["serve.inflight_max"] = float64(fx.inflightMax)
	r.layer["serve.pending_max"] = float64(fx.pendingMax)
	r.layer["serve.admitted"] = float64(m.Admitted)
	r.layer["serve.rejected"] = float64(m.Rejected)
	r.layer["serve.shed"] = float64(m.Shed)
	r.layer["serve.score_errors"] = float64(m.ScoreErrors)
	r.layer["serve.alarms"] = float64(m.Alarms)
	r.layer["serve.alarms_expected"] = float64(expected)
	r.layer["serve.alarm_slo_miss_share"] = 1 - ratio(float64(delivered), float64(expected))
	if hasP99 {
		r.layer["serve.alarm_p99_over_p50"] = ratio(p99, s.P50)
	}
	// Metrics' own quantiles come from log2 buckets: coarse, an upper edge.
	r.layer["serve.window_p99_over_slo_reported"] = ratio(float64(m.WindowP99), float64(serveSLO))
	scoreMS, scoreTotal := scoring(stats)
	if p99, ok := tail(scoreMS, 0.99); ok {
		r.layer["serve.batch_score_p99_over_p50"] = ratio(p99, median(scoreMS))
	}
	// Kept for the tour to divide by its own light-session figure.
	r.layer["serve.score_us_over_probe"] = ratio(scoreTotal*1e6, float64(m.Scored+m.ScoreErrors))
	// The schedule fixes this workload's wall, so tracing cannot lengthen
	// it; what it costs is processor time, timed by the tracer itself.
	spanNS := float64(len(r.tr.spans)) * spanCostNS()
	r.layer["trace.overhead_share"] = ratio((float64(r.tr.cbNS.Load())+spanNS)/1e9, selfEnd-selfStart)
}

// spanCostNS is what recording one span costs, measured on a scratch tracer.
func spanCostNS() float64 {
	t := newTracer(true)
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.call("harness", "calibrate", func() {})
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// buildServe is the serving set-up: train the model through a runtime, build
// the signal pool and its edge.Run references, lay out the schedule and
// start a server.
func (r *run) buildServe(streams, pushes int, arrival, stride time.Duration, samples int) (*serveFixture, error) {
	fx := &serveFixture{}
	var observers []compss.Observer
	if r.o.traced {
		fx.obs = compss.NewStatsObserver()
		observers = []compss.Observer{fx.obs}
	}
	fx.rt = compss.New(compss.Config{Observers: observers})
	model, err := trainServeModel(fx.rt, r.o.seed)
	if err != nil {
		return nil, err
	}
	fx.pool = signalPool(samples, r.o.seed)
	featurize, classify := model.Edge()
	fx.refEnd = make([]int, len(fx.pool))
	for i, sig := range fx.pool {
		_, alarmSec, err := edge.Run(serveWindow(), featurize, classify, sig)
		if err != nil {
			return nil, err
		}
		fx.refEnd[i] = -1
		if alarmSec >= 0 {
			fx.refEnd[i] = int(math.Round(alarmSec * serveFs))
		}
	}
	fx.sched, fx.signal = schedule(streams, pushes, arrival, stride, r.o.seed)

	cfg := serve.Config{
		Window:       serveWindow(),
		Score:        core.ServeScorer(fx.rt.Main(), model),
		SLO:          serveSLO,
		MaxBatch:     serveMaxBatch,
		MaxDelay:     serveMaxDelay,
		StreamBuffer: serveBuffer,
		OnAlarm: func(id int, ev edge.Event, _ time.Duration) {
			now := time.Now()
			fx.mu.Lock()
			fx.alarms = append(fx.alarms, fired{id: id, end: int(math.Round(ev.TimeSec * serveFs)), at: now})
			fx.mu.Unlock()
		},
	}
	if r.o.traced {
		cfg.Hook = func(s serve.Sample) {
			start := time.Now()
			fx.mu.Lock()
			fx.inflightMax = max(fx.inflightMax, s.InFlight)
			fx.pendingMax = max(fx.pendingMax, s.Pending)
			fx.mu.Unlock()
			r.tr.cbNS.Add(time.Since(start).Nanoseconds())
		}
	}
	fx.srv, err = serve.New(fx.rt, cfg)
	return fx, err
}
