// Command serve runs the always-on AF inference service (internal/serve)
// against synthetic paroxysmal patient streams: it trains a random forest
// through the task runtime (the edgemonitor recipe), then admits -streams
// concurrent ECG streams, micro-batches their analysis windows into
// registered scoring tasks, and reports serving-latency quantiles,
// admission rejections and shed windows. The driver is paced in real time
// — one stride per round — so overload shows up the way it would in
// production: as admission rejections and backpressure shedding, never as
// silent queue growth.
//
// Usage:
//
//	serve                            # 1k streams, 250 ms SLO
//	serve -streams 10000             # sustained 10k-stream run
//	serve -streams 100000            # past capacity: admission rejects
//	serve -slo-ms 50 -batch 32       # tighter SLO, smaller batches
//	serve -trace serve.json          # Chrome trace with the serving rows
//	serve -backend remote            # scoring on loopback worker processes
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/dsarray"
	"taskml/internal/ecg"
	"taskml/internal/edge"
	"taskml/internal/exec"
	"taskml/internal/forest"
	"taskml/internal/mat"
	"taskml/internal/par"
	"taskml/internal/serve"
	"taskml/internal/trace"
)

func main() {
	exec.MaybeWorkerMain() // loopback re-exec hook: serve tasks instead when spawned as a worker
	streams := flag.Int("streams", 1000, "concurrent patient streams offered to the service")
	sloMS := flag.Int("slo-ms", 250, "per-stream p99 serving-latency SLO in ms (0 disables admission by SLO)")
	batch := flag.Int("batch", 64, "micro-batch size (windows per scoring task)")
	batchDelayMS := flag.Int("batch-delay-ms", 5, "micro-batch deadline in ms")
	buffer := flag.Int("buffer", 4, "per-stream ingress buffer (windows) before oldest-window shedding")
	maxStreams := flag.Int("max-streams", 0, "hard admission cap (0 = SLO projection only)")
	streamSec := flag.Float64("stream-sec", 24, "seconds of signal per stream")
	fs := flag.Float64("fs", 100, "stream sampling rate in Hz")
	windowSec := flag.Float64("window-sec", 8, "analysis window length in seconds")
	strideSec := flag.Float64("stride-sec", 4, "window stride in seconds (also the driver round length)")
	alarmAfter := flag.Int("alarm-after", 2, "consecutive positive windows before the alarm")
	trees := flag.Int("trees", 15, "forest size")
	trainPerClass := flag.Int("train-per-class", 40, "training windows per class")
	seed := flag.Int64("seed", 1, "experiment seed (signals and training)")
	workers := flag.Int("workers", 0, "runtime worker goroutines (0 = GOMAXPROCS)")
	traceOut := flag.String("trace", "", "write a Chrome trace (task, data-plane and serving rows) to this file")
	var ecfg exec.Config
	ecfg.Flags(flag.CommandLine)
	flag.Parse()

	backend, err := exec.Open(ecfg)
	if err != nil {
		fatal(err)
	}
	if backend != nil {
		defer backend.Close()
	}

	var collector *trace.Collector
	var observers []compss.Observer
	if *traceOut != "" {
		collector = trace.NewCollector()
		observers = []compss.Observer{collector}
		if r, ok := backend.(*exec.Remote); ok {
			r.SetCacheHook(collector.AddCacheSample)
			r.SetFleetHook(collector.AddFleetEvent)
		}
	}
	rt := compss.New(compss.Config{Workers: *workers, Observers: observers, Backend: backend})

	// 1. Train the deployed model through the runtime (cloud half of
	//    Figure 1), on exact analysis windows.
	fmt.Printf("training %d-tree forest on %d windows/class...\n", *trees, *trainPerClass)
	start := time.Now()
	model, err := trainModel(rt, *fs, *windowSec, *trees, *trainPerClass, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model ready in %v (%d trees)\n", time.Since(start).Round(time.Millisecond), len(model.Trees))

	// 2. Synthetic patient pool: a few dozen distinct paroxysmal
	//    recordings shared (read-only) by all streams.
	pool := signalPool(*fs, *streamSec, *seed)

	// From here on parallelism belongs to the task runtime (see
	// internal/par): scoring bodies get one kernel goroutine each.
	par.SetLimit(1)

	// 3. The serving plane.
	cfg := serve.Config{
		Window: edge.Config{
			Fs: *fs, WindowSec: *windowSec, StrideSec: *strideSec,
			AlarmAfter: *alarmAfter, PositiveLabel: core.LabelAF,
		},
		Score:        core.ServeScorer(rt.Main(), model),
		SLO:          time.Duration(*sloMS) * time.Millisecond,
		MaxBatch:     *batch,
		MaxDelay:     time.Duration(*batchDelayMS) * time.Millisecond,
		StreamBuffer: *buffer,
		MaxStreams:   *maxStreams,
		Slots:        *workers, // 0 → GOMAXPROCS, matching the runtime default
	}
	if collector != nil {
		cfg.Hook = collector.AddServeSample
	}
	srv, err := serve.New(rt, cfg)
	if err != nil {
		fatal(err)
	}

	// 4. Real-time paced driver: each round is one stride long; streams are
	//    admitted in tranches across the first admitRounds rounds so the
	//    SLO projection warms up on measured service times before the bulk
	//    of the offered load arrives. Rejected streams are not retried.
	strideDur := time.Duration(*strideSec * float64(time.Second))
	strideN := cfg.Window.StrideSamples()
	const admitRounds = 6
	admitPerRound := (*streams + admitRounds - 1) / admitRounds
	type driverStream struct {
		st  *serve.Stream
		sig []float64
		pos int
	}
	var active []*driverStream
	offered, rejected := 0, 0
	fmt.Printf("offering %d streams (%.0fs each, stride %.0fs, SLO %dms)...\n",
		*streams, *streamSec, *strideSec, *sloMS)
	wallStart := time.Now()
	for round := 0; ; round++ {
		if d := time.Until(wallStart.Add(time.Duration(round) * strideDur)); d > 0 {
			time.Sleep(d) // a slow round is not compensated: overload stays visible
		}
		for offered < *streams && offered < (round+1)*admitPerRound {
			st, err := srv.Admit()
			var capErr *serve.CapacityError
			switch {
			case err == nil:
				active = append(active, &driverStream{st: st, sig: pool[offered%len(pool)]})
			case errors.As(err, &capErr):
				rejected++
			default:
				fatal(err)
			}
			offered++
		}
		pushed := false
		for _, ds := range active {
			end := min(ds.pos+strideN, len(ds.sig))
			if ds.pos >= end {
				continue
			}
			if err := ds.st.Push(ds.sig[ds.pos:end]...); err != nil {
				fatal(err)
			}
			ds.pos = end
			pushed = true
		}
		if offered >= *streams && !pushed {
			break
		}
	}
	srv.Flush()
	srv.WaitIdle()
	wall := time.Since(wallStart)
	m := srv.Metrics()
	if err := srv.Close(); err != nil {
		fatal(err)
	}

	// 5. Report.
	alarmed := 0
	for _, ds := range active {
		if ds.st.AlarmRaised() {
			alarmed++
		}
	}
	fmt.Printf("\nadmitted %d / rejected %d of %d offered streams (%.1fs wall)\n",
		m.Admitted, m.Rejected, offered, wall.Seconds())
	fmt.Printf("windows: %d cut, %d scored, %d shed (%.2f%%), %d score errors, %d batches (mean %.1f windows)\n",
		m.Windows, m.Scored, m.Shed, 100*rate(m.Shed, m.Windows), m.ScoreErrors,
		m.Batches, mean(m.Scored+m.ScoreErrors, m.Batches))
	fmt.Printf("alarms: %d (on %d/%d admitted streams)\n", m.Alarms, alarmed, len(active))
	fmt.Printf("serving latency: p50 %v, p99 %v; alarm latency: p50 %v, p99 %v; svc %v/window\n",
		m.WindowP50, m.WindowP99, m.AlarmP50, m.AlarmP99, m.ServicePerWindow)

	if collector != nil {
		if err := collector.Chrome().WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d events, %d serving samples -> %s (open in https://ui.perfetto.dev)\n",
			len(collector.Events()), len(collector.ServeSamples()), *traceOut)
	}
}

// trainModel fits the deployed forest on exact analysis windows cut from
// synthetic recordings — the edgemonitor recipe, parameterised.
func trainModel(rt *compss.Runtime, fs, windowSec float64, trees, perClass int, seed int64) (*core.ServeModel, error) {
	feat := core.FeatureConfig{PadSec: windowSec, Window: 128, MaxFreqHz: 30, TimePool: 2}
	gen := ecg.NewGenerator(ecg.GenConfig{
		Fs: fs, Seed: seed, MinDurSec: windowSec + 1, MaxDurSec: windowSec + 6,
		NoiseStd: 0.05, AFSubtlety: 0.05,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	var rows [][]float64
	var labels []int
	for _, class := range []ecg.Class{ecg.Normal, ecg.AF} {
		for i := 0; i < perClass; i++ {
			rec := gen.Record(class)
			win := int(windowSec * rec.Fs)
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
	rf := &forest.RandomForest{Params: forest.Params{NEstimators: trees, Seed: seed}}
	if err := rf.Fit(xa, ya); err != nil {
		return nil, err
	}
	nodes, err := rf.Trees(rt.Main())
	if err != nil {
		return nil, err
	}
	return &core.ServeModel{Feat: feat, Trees: nodes}, nil
}

// signalPool builds a few dozen distinct paroxysmal recordings; streams
// share them read-only (the serving layer copies windows at cut time), so
// a 100k-stream run does not hold 100k signals.
func signalPool(fs, streamSec float64, seed int64) [][]float64 {
	const poolSize = 32
	pool := make([][]float64, poolSize)
	for i := range pool {
		// Vary the AF onset across the pool: between 35% and 65% in.
		normal := streamSec * (0.35 + 0.3*float64(i)/float64(poolSize-1))
		gen := ecg.NewGenerator(ecg.GenConfig{
			Fs: fs, Seed: seed + 100 + int64(i), NoiseStd: 0.05, AFSubtlety: 0.05,
		})
		rec, _ := gen.Paroxysmal(normal, streamSec-normal)
		pool[i] = rec.Signal
	}
	return pool
}

func rate(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func mean(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
