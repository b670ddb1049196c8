package serve

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskml/internal/compss"
	"taskml/internal/edge"
)

// batchLog records every scored batch's size.
type batchLog struct {
	mu    sync.Mutex
	sizes []int
}

func (b *batchLog) record(n int) {
	b.mu.Lock()
	b.sizes = append(b.sizes, n)
	b.mu.Unlock()
}

func (b *batchLog) get() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.sizes...)
}

// constScorer labels every window `label`, recording batch sizes.
func constScorer(log *batchLog, label int) Scorer {
	return func(tc *compss.TaskCtx, windows [][]float64, fs float64) *compss.Future {
		if log != nil {
			log.record(len(windows))
		}
		n := len(windows)
		return tc.Submit(compss.Opts{Name: "score"}, func(tc *compss.TaskCtx, args []any) (any, error) {
			labels := make([]int, n)
			for i := range labels {
				labels[i] = label
			}
			return labels, nil
		})
	}
}

// testConfig is the shared geometry: 1 s windows, 1 s stride, 10 Hz — one
// window per 10 samples, no overlap, so window counts are easy to reason
// about.
func testConfig() edge.Config {
	return edge.Config{Fs: 10, WindowSec: 1, StrideSec: 1, AlarmAfter: 2}
}

// newServer is New for a test: the server closes, and its scorer loops
// return, when the test ends.
func newServer(t *testing.T, rt *compss.Runtime, cfg Config) (*Server, error) {
	s, err := New(rt, cfg)
	if err == nil {
		t.Cleanup(func() { s.Close() })
	}
	return s, err
}

// gate holds scorer loops busy: its scorer announces each call on entered,
// then waits for open to close before it submits like constScorer.
type gate struct{ entered, open chan struct{} }

// newGate's entered has room for every call a test makes, so no scorer
// blocks announcing itself.
func newGate() *gate { return &gate{entered: make(chan struct{}, 64), open: make(chan struct{})} }

func (g *gate) scorer(log *batchLog, label int) Scorer {
	score := constScorer(log, label)
	return func(tc *compss.TaskCtx, windows [][]float64, fs float64) *compss.Future {
		g.entered <- struct{}{}
		<-g.open
		return score(tc, windows, fs)
	}
}

// busy returns once n scorer loops hold a batch at the gate.
func (g *gate) busy(n int) {
	for range n {
		<-g.entered
	}
}

// A window geometry that rounds to zero samples is refused by New, not by
// every Admit after it: a stride of 0.001 s at 100 Hz is 0.1 samples.
func TestServeNewRefusesZeroSampleStride(t *testing.T) {
	rt := compss.New(compss.Config{Workers: 1})
	s, err := newServer(t, rt, Config{
		Window: edge.Config{Fs: 100, WindowSec: 8, StrideSec: 0.001},
		Score:  constScorer(&batchLog{}, 1),
	})
	if err == nil {
		t.Fatalf("New accepted a %d-sample stride", s.strideN)
	}
}

// An idle server scores a lone window at once: no Flush, and no timer.
func TestServeScoresLoneWindowAtOnce(t *testing.T) {
	log := &batchLog{}
	rt := compss.New(compss.Config{Workers: 2})
	s, err := newServer(t, rt, Config{
		Window: testConfig(),
		Score:  constScorer(log, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Admit()
	for i := 1; i <= 3; i++ {
		if err := st.Push(make([]float64, 10)...); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle()
		if m := s.Metrics(); m.Scored != int64(i) || m.Batches != int64(i) {
			t.Fatalf("after window %d: %+v, want each window scored alone", i, m)
		}
	}
	if got := log.get(); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("batches = %v, want [1 1 1]", got)
	}
}

// Windows wait only while every scorer loop is busy, and the first loop to
// come free takes what waited, oldest first and at most MaxBatch at a time.
func TestServeBatchesWhatWaited(t *testing.T) {
	log := &batchLog{}
	g := newGate()
	rt := compss.New(compss.Config{Workers: 1})
	s, err := newServer(t, rt, Config{
		Window:       testConfig(),
		Score:        g.scorer(log, 1),
		MaxBatch:     4,
		StreamBuffer: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Admit()
	if err := st.Push(make([]float64, 10)...); err != nil {
		t.Fatal(err)
	}
	g.busy(1)
	if err := st.Push(make([]float64, 90)...); err != nil { // 9 windows wait
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Pending != 9 || m.InFlight != 1 || m.Batches != 1 {
		t.Fatalf("pending=%d inflight=%d batches=%d, want 9 waiting behind 1 batch", m.Pending, m.InFlight, m.Batches)
	}
	close(g.open)
	s.WaitIdle()
	if got := log.get(); !reflect.DeepEqual(got, []int{1, 4, 4, 1}) {
		t.Fatalf("batches = %v, want [1 4 4 1]", got)
	}
	if m := s.Metrics(); m.Windows != 10 || m.Scored != 10 || m.Pending != 0 || m.Shed != 0 {
		t.Fatalf("metrics = %+v, want 10 windows all scored", m)
	}
}

// One scorer loop a runtime slot scores at once and no more: with both
// busy a third window waits, and goes as soon as either is free.
func TestServeScoresOnSlotsLoops(t *testing.T) {
	log := &batchLog{}
	g := newGate()
	rt := compss.New(compss.Config{Workers: 2})
	s, err := newServer(t, rt, Config{
		Window:       testConfig(),
		Score:        g.scorer(log, 1),
		StreamBuffer: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Admit()
	b, _ := s.Admit()
	for i, st := range []*Stream{a, b, a} {
		if err := st.Push(make([]float64, 10)...); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			g.busy(1) // a loop took the window: the next finds the other free
		}
	}
	if m := s.Metrics(); m.Pending != 1 || m.InFlight != 2 || m.Batches != 2 {
		t.Fatalf("pending=%d inflight=%d batches=%d, want 1 waiting behind 2 batches", m.Pending, m.InFlight, m.Batches)
	}
	close(g.open)
	s.WaitIdle()
	if got := log.get(); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("batches = %v, want [1 1 1]", got)
	}
}

func TestServeAdmissionMaxStreams(t *testing.T) {
	rt := compss.New(compss.Config{Workers: 1})
	s, err := newServer(t, rt, Config{
		Window:     testConfig(),
		Score:      constScorer(nil, 1),
		MaxStreams: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]*Stream, 3)
	for i := range streams {
		if streams[i], err = s.Admit(); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	_, err = s.Admit()
	var capErr *CapacityError
	if !errors.As(err, &capErr) {
		t.Fatalf("4th Admit err = %v, want *CapacityError", err)
	}
	if capErr.Streams != 3 {
		t.Fatalf("CapacityError.Streams = %d, want 3", capErr.Streams)
	}
	// Closing a stream frees its admission slot.
	streams[0].Close()
	if _, err := s.Admit(); err != nil {
		t.Fatalf("Admit after Close: %v", err)
	}
	if m := s.Metrics(); m.Rejected != 1 || m.Admitted != 4 {
		t.Fatalf("admitted=%d rejected=%d, want 4/1", m.Admitted, m.Rejected)
	}
}

func TestServeAdmissionSLOProjection(t *testing.T) {
	rt := compss.New(compss.Config{Workers: 1})
	s, err := newServer(t, rt, Config{
		Window: testConfig(), // 1 s stride: each stream offers 1 window/s
		Score:  constScorer(nil, 1),
		SLO:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Prime the measured service time: 50 ms/window on 1 slot = 20
	// windows/s capacity. headroom 0.85 admits while n·1win/s < 17.
	s.mu.Lock()
	s.svc = 0.05
	s.mu.Unlock()
	admitted := 0
	var rejectErr error
	for i := 0; i < 100; i++ {
		if _, err := s.Admit(); err != nil {
			rejectErr = err
			break
		}
		admitted++
	}
	if admitted != 16 {
		t.Fatalf("admitted %d streams, want 16 (headroom 0.85 of 20 win/s)", admitted)
	}
	var capErr *CapacityError
	if !errors.As(rejectErr, &capErr) {
		t.Fatalf("rejection err = %v, want *CapacityError", rejectErr)
	}
	if capErr.Projected <= capErr.SLO {
		t.Fatalf("projected %v should exceed SLO %v", capErr.Projected, capErr.SLO)
	}

	// A tight SLO rejects even the first stream once a service time is
	// measured: base latency alone (svc) exceeds it.
	s2, err := newServer(t, rt, Config{
		Window: testConfig(),
		Score:  constScorer(nil, 1),
		SLO:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s2.mu.Lock()
	s2.svc = 0.05
	s2.mu.Unlock()
	if _, err := s2.Admit(); !errors.As(err, &capErr) {
		t.Fatalf("tight-SLO Admit err = %v, want *CapacityError", err)
	}
}

// The admission projection charges a window what it costs once batches
// fill: a per-batch cost spread over MaxBatch windows, not over however few
// a lightly loaded server happened to batch.
func TestServeCostFitChargesFullBatches(t *testing.T) {
	const c0, c1 = 300e-6, 40e-6 // seconds a batch, seconds a window
	var f costFit
	for i := 0; i < 1000; i++ {
		b := float64(1 + i%8) // small batches only
		f.add(b, c0+c1*b)
	}
	if got, want := f.perWindow(64), c1+c0/64; math.Abs(got-want) > 1e-9 {
		t.Fatalf("perWindow(64) = %.2f µs, want %.2f µs", got*1e6, want*1e6)
	}
	var same costFit // no spread in size: nothing to fit, the mean stands
	for i := 0; i < 10; i++ {
		same.add(4, 4*c1+c0)
	}
	if got, want := same.perWindow(64), c1+c0/4; math.Abs(got-want) > 1e-9 {
		t.Fatalf("perWindow without spread = %.2f µs, want the mean %.2f µs", got*1e6, want*1e6)
	}
}

func TestServeBackpressureShedding(t *testing.T) {
	log := &batchLog{}
	g := newGate()
	var shedSamples atomic.Int64
	rt := compss.New(compss.Config{Workers: 1})
	var s *Server
	s, err := newServer(t, rt, Config{
		Window:       testConfig(),
		Score:        g.scorer(log, 0), // every window positive (AF)
		MaxBatch:     100,
		StreamBuffer: 2,
		RecordEvents: true,
		Hook: func(sm Sample) {
			if sm.Kind == "shed" {
				shedSamples.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Another stream's window holds the one scorer loop, so what st cuts waits
	// in its ingress buffer.
	busy, _ := s.Admit()
	if err := busy.Push(make([]float64, 10)...); err != nil {
		t.Fatal(err)
	}
	g.busy(1)
	st, _ := s.Admit()
	// 5 windows against a 2-window ingress buffer: the 3 oldest shed.
	if err := st.Push(make([]float64, 50)...); err != nil {
		t.Fatal(err)
	}
	if stats := st.Stats(); stats.Windows != 5 || stats.Shed != 3 {
		t.Fatalf("stream stats = %+v, want 5 windows / 3 shed", stats)
	}
	if m := s.Metrics(); m.Shed != 3 || m.Pending != 2 {
		t.Fatalf("server metrics = %+v, want shed 3 / pending 2", m)
	}
	if got := shedSamples.Load(); got != 3 {
		t.Fatalf("shed hook samples = %d, want 3", got)
	}
	close(g.open)
	s.WaitIdle()
	// Shed windows never reach a batch: only the 2 survivors score, after
	// the busy stream's window.
	if got := log.get(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("batches = %v, want [1 2] (shed windows excluded)", got)
	}
	// The 3 shed windows are gaps, not resets: the 2 surviving positive
	// windows are consecutive to the debouncer and raise the alarm
	// (AlarmAfter=2).
	if !st.AlarmRaised() {
		t.Fatal("alarm not raised: shed windows must not reset the debounce chain")
	}
	if stats := st.Stats(); stats.Scored != 2 || stats.Alarms != 1 {
		t.Fatalf("stream stats = %+v, want 2 scored / 1 alarm", stats)
	}
	// Events carry only applied windows, ending with the alarm.
	evs := st.Events()
	if len(evs) != 2 || !evs[1].Alarm {
		t.Fatalf("events = %+v, want 2 applied events with alarm on the last", evs)
	}
}

func TestServeScoreErrorSkips(t *testing.T) {
	var fail atomic.Bool
	rt := compss.New(compss.Config{Workers: 2})
	scorer := func(tc *compss.TaskCtx, windows [][]float64, fs float64) *compss.Future {
		n := len(windows)
		return tc.Submit(compss.Opts{Name: "score"}, func(tc *compss.TaskCtx, args []any) (any, error) {
			if fail.Load() {
				return nil, errors.New("injected scoring failure")
			}
			labels := make([]int, n)
			return labels, nil // all positive (label 0)
		})
	}
	s, err := newServer(t, rt, Config{
		Window:       testConfig(),
		Score:        scorer,
		MaxBatch:     100,
		StreamBuffer: 100,
		RecordEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Admit()
	push := func() {
		t.Helper()
		if err := st.Push(make([]float64, 10)...); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle()
	}
	push() // window 1: positive, chain = 1
	fail.Store(true)
	push() // window 2: scoring fails → skipped, chain untouched
	fail.Store(false)
	push() // window 3: positive, chain = 2 → alarm
	m := s.Metrics()
	if m.ScoreErrors != 1 || m.Scored != 2 {
		t.Fatalf("metrics = %+v, want 1 score error / 2 scored", m)
	}
	if !st.AlarmRaised() || m.Alarms != 1 {
		t.Fatal("alarm not raised: a failed batch must skip, not reset, the debounce chain")
	}
}

// parityModel is the deterministic featurize+classify pair shared by the
// served and batch paths in the parity test.
func parityFeaturize(window []float64, fs float64) ([]float64, error) {
	var mean, sq float64
	for _, v := range window {
		mean += v
	}
	mean /= float64(len(window))
	for _, v := range window {
		sq += (v - mean) * (v - mean)
	}
	return []float64{mean, math.Sqrt(sq / float64(len(window)))}, nil
}

func parityClassify(feats []float64) (int, error) {
	if feats[0] > 0.5 { // high-mean windows are "AF"
		return 0, nil
	}
	return 1, nil
}

// paritySignal builds a deterministic 2-phase signal: quiet, then elevated
// with a per-stream ripple.
func paritySignal(seed, n, onset int) []float64 {
	sig := make([]float64, n)
	state := uint64(seed)*2654435761 + 1
	for i := range sig {
		state = state*6364136223846793005 + 1442695040888963407
		ripple := float64(state>>40) / float64(1<<24) * 0.2
		if i >= onset {
			sig[i] = 1.0 + ripple
		} else {
			sig[i] = ripple
		}
	}
	return sig
}

func TestServeParityWithEdgeRun(t *testing.T) {
	cfg := edge.Config{Fs: 100, WindowSec: 2, StrideSec: 1, AlarmAfter: 2}
	rt := compss.New(compss.Config{Workers: 2})
	// The scorer runs the same featurize+classify the batch path uses,
	// inside a submitted task.
	scorer := func(tc *compss.TaskCtx, windows [][]float64, fs float64) *compss.Future {
		return tc.Submit(compss.Opts{Name: "parity_score"}, func(tc *compss.TaskCtx, args []any) (any, error) {
			labels := make([]int, len(windows))
			for i, w := range windows {
				feats, err := parityFeaturize(w, fs)
				if err != nil {
					return nil, err
				}
				if labels[i], err = parityClassify(feats); err != nil {
					return nil, err
				}
			}
			return labels, nil
		})
	}
	// Real clock, three pushers against two scorers: windows wait, and
	// MaxBatch=3 cuts what waited into cross-stream batches.
	s, err := newServer(t, rt, Config{
		Window:       cfg,
		Score:        scorer,
		MaxBatch:     3,
		StreamBuffer: 1 << 20, // parity needs every window scored
		RecordEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	signals := [][]float64{
		paritySignal(1, 3000, 1000),
		paritySignal(2, 3000, 1500),
		paritySignal(3, 3000, 2200),
	}
	chunks := []int{7, 64, 1000} // deliberately different ingest chunking
	streams := make([]*Stream, len(signals))
	for i := range signals {
		if streams[i], err = s.Admit(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, sig := range signals {
		wg.Add(1)
		go func(st *Stream, sig []float64, chunk int) {
			defer wg.Done()
			for off := 0; off < len(sig); off += chunk {
				end := min(off+chunk, len(sig))
				if err := st.Push(sig[off:end]...); err != nil {
					t.Error(err)
					return
				}
			}
		}(streams[i], sig, chunks[i])
	}
	wg.Wait()
	s.WaitIdle()

	for i, sig := range signals {
		wantEvents, wantAlarm, err := edge.Run(cfg, parityFeaturize, parityClassify, sig)
		if err != nil {
			t.Fatal(err)
		}
		got := streams[i].Events()
		if !reflect.DeepEqual(got, wantEvents) {
			t.Fatalf("stream %d: served events differ from edge.Run\n got %d events\nwant %d events\nfirst diff: %s",
				i, len(got), len(wantEvents), firstEventDiff(got, wantEvents))
		}
		gotAlarm := -1.0
		for _, e := range got {
			if e.Alarm {
				gotAlarm = e.TimeSec
				break
			}
		}
		if gotAlarm != wantAlarm {
			t.Fatalf("stream %d: alarm at %v, edge.Run at %v", i, gotAlarm, wantAlarm)
		}
	}
	if m := s.Metrics(); m.Shed != 0 || m.ScoreErrors != 0 {
		t.Fatalf("parity run shed/error windows: %+v", m)
	}
}

func firstEventDiff(got, want []edge.Event) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("index %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(got), len(want))
}
