package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"taskml/internal/compss"
	"taskml/internal/edge"
)

// Scorer submits one micro-batch of analysis windows for scoring and
// returns a Future resolving to []int — one label per window, in batch
// order. Implementations submit a task onto tc (a registered exec body
// such as core's "serve_score", or a plain closure for in-process use);
// the window slices are owned by the server and must be treated read-only.
type Scorer func(tc *compss.TaskCtx, windows [][]float64, fs float64) *compss.Future

// Config parameterises a Server.
type Config struct {
	// Window is the per-stream geometry and debounce configuration
	// (edge.Config): Fs is required, the rest defaults as in edge.
	Window edge.Config
	// Score submits micro-batches for scoring. Required.
	Score Scorer

	// SLO is the per-stream serving-latency target enforced by admission
	// control: Admit rejects a new stream when the projected p99 latency
	// from window-ready to label-applied would exceed it. 0 disables the
	// SLO projection (MaxStreams still applies).
	SLO time.Duration
	// MaxBatch flushes the batcher when this many windows are pending.
	// Default 64.
	MaxBatch int
	// MaxDelay flushes the batcher when the oldest pending window has
	// waited this long, bounding the latency cost of batching at low load.
	// Default 5ms.
	MaxDelay time.Duration
	// StreamBuffer bounds each stream's ingress buffer: windows cut but
	// not yet flushed into a batch. When a new window would exceed it, the
	// stream's oldest buffered window is shed — counted per stream and on
	// the server, never silent. Default 4.
	StreamBuffer int
	// MaxStreams is a hard admission cap; 0 means no fixed cap.
	MaxStreams int
	// Slots is the scoring-capacity estimate used by the admission
	// projection: how many window scorings proceed concurrently (the
	// runtime's worker count, or the fleet's slot total on a remote
	// backend). Default GOMAXPROCS.
	Slots int
	// Headroom is the utilisation ceiling of the admission projection:
	// a stream whose steady-state load would push utilisation to or past
	// it is rejected outright. Default 0.85.
	Headroom float64
	// MinSamples is how many latency observations the projection needs
	// before it trusts the measured p99 over the cold-start estimate.
	// Default 32.
	MinSamples int

	// RecordEvents keeps every applied event on the stream (Stream.Events)
	// — the parity-test and debugging mode. Off by default: a long-lived
	// service must not accumulate per-window state.
	RecordEvents bool
	// OnAlarm, when non-nil, is called for every alarm with the stream id,
	// the alarm event and the serving latency of the alarm window (ready →
	// applied). Called outside the server lock, possibly concurrently.
	OnAlarm func(stream int, ev edge.Event, latency time.Duration)
	// Hook, when non-nil, receives a Sample for every serving-plane event
	// (flushes, alarms, sheds, rejections, score errors) — wire it to
	// trace.Collector.AddServeSample for the Chrome export. Called outside
	// the server lock, possibly concurrently.
	Hook func(Sample)
	// Now overrides the wall clock (virtual-clock tests). A non-nil Now
	// also disables the background deadline flusher: the test drives
	// flushes explicitly. nil = time.Now with a real flusher goroutine.
	Now func() time.Time
}

// Sample is one serving-plane observation, exported through Config.Hook —
// the serve counterpart of exec.CacheSample. trace.Collector.AddServeSample
// stamps and renders the stream as a "serving" process in the Chrome
// export.
type Sample struct {
	// Kind is the observation: "flush" (a batch left the queue), "alarm",
	// "shed" (one window dropped by backpressure), "reject" (admission
	// refused a stream), or "error" (a batch's scoring task failed).
	Kind string
	// Stream is the stream id for "alarm" and "shed"; -1 otherwise.
	Stream int
	// Batch is the flushed batch size ("flush", "error").
	Batch int
	// Pending is the batcher queue depth after the event.
	Pending int
	// InFlight is the number of submitted, not yet applied batches.
	InFlight int
	// Streams is the number of open streams.
	Streams int
	// LatencyUS is the serving latency of the alarm window ("alarm").
	LatencyUS int64
	// Shed is the cumulative shed-window count ("shed").
	Shed int64
}

// ErrClosed is returned by Admit and Push after Close.
var ErrClosed = errors.New("serve: server closed")

// CapacityError is the admission-control rejection: the server will not
// degrade existing streams' SLO to accept a new one.
type CapacityError struct {
	// Streams is the open-stream count at rejection time.
	Streams int
	// Projected is the projected p99 serving latency with the new stream
	// admitted (0 when the rejection came from MaxStreams).
	Projected time.Duration
	// SLO is the configured target.
	SLO time.Duration
	// Reason is a human-readable cause.
	Reason string
}

func (e *CapacityError) Error() string { return "serve: admission rejected: " + e.Reason }

// maxDuration stands in for an unbounded latency projection.
const maxDuration = time.Duration(math.MaxInt64)

// window is one cut analysis window travelling through the serving
// pipeline: stream ingress buffer → batcher queue → scoring batch →
// in-order apply.
type window struct {
	st      *Stream
	seq     int       // per-stream apply order
	end     int       // stream sample index past the window (edge.Debouncer.Apply)
	data    []float64 // the samples; nil once the window is scored or shed
	ready   time.Time // when the window became ready (latency epoch)
	shed    bool      // dropped by backpressure; batcher discards it
	flushed bool      // already taken into a batch
}

// scored is the terminal outcome of one window, delivered to its stream's
// reorder buffer.
type scored struct {
	label int
	end   int
	ready time.Time
	skip  bool // shed or score-error: advance the sequence without applying
}

// Server is the always-on inference coordinator: it multiplexes many
// concurrent streams onto one task runtime, micro-batching ready windows
// across streams into scoring tasks and enforcing per-stream latency SLOs
// with admission control and bounded-buffer shedding.
type Server struct {
	cfg     Config
	rt      *compss.Runtime
	fs      float64
	stride  float64 // seconds between windows per stream (offered-load unit)
	winLen  int
	strideN int

	mu       sync.Mutex
	cond     *sync.Cond
	streams  map[int]*Stream
	nextID   int
	q        []*window // FIFO by ready time across all streams
	pending  int       // non-shed windows in q
	inflight int

	winHist   latHist
	alarmHist latHist
	svcEWMA   float64 // measured seconds per window (batch turnaround / size)

	admitted, rejected          int64
	windows, scoredN, shedTotal int64
	scoreErrs, alarms, batches  int64
	closed                      bool

	stop       chan struct{}
	flusherRIP chan struct{}
}

// New builds a Server submitting onto rt. The caller owns the runtime (and
// its backend); Close drains the server but leaves the runtime usable.
func New(rt *compss.Runtime, cfg Config) (*Server, error) {
	if rt == nil {
		return nil, errors.New("serve: runtime is required")
	}
	if cfg.Score == nil {
		return nil, errors.New("serve: Config.Score is required")
	}
	if err := cfg.Window.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	if cfg.StreamBuffer <= 0 {
		cfg.StreamBuffer = 4
	}
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.GOMAXPROCS(0)
	}
	if cfg.Headroom <= 0 || cfg.Headroom > 1 {
		cfg.Headroom = 0.85
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 32
	}
	s := &Server{
		cfg:     cfg,
		rt:      rt,
		fs:      cfg.Window.Fs,
		winLen:  cfg.Window.WindowSamples(),
		strideN: cfg.Window.StrideSamples(),
		streams: map[int]*Stream{},
	}
	s.stride = float64(s.strideN) / s.fs
	s.cond = sync.NewCond(&s.mu)
	if s.cfg.Now == nil {
		s.cfg.Now = time.Now
		s.stop = make(chan struct{})
		s.flusherRIP = make(chan struct{})
		interval := s.cfg.MaxDelay / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		go s.flusher(interval)
	}
	return s, nil
}

// flusher is the background deadline pump: it checks the oldest pending
// window every interval and flushes everything once MaxDelay is due.
func (s *Server) flusher(interval time.Duration) {
	defer close(s.flusherRIP)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.flushDue()
		}
	}
}

// Admit opens a new stream, or rejects it: with MaxStreams reached, or
// when the projected p99 serving latency including the new stream's
// steady-state load would exceed the SLO. Rejection protects the SLO of
// the streams already admitted — the server sheds load at the door rather
// than degrading everyone.
func (s *Server) Admit() (*Stream, error) {
	var sample Sample
	hooked := false
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	var capErr *CapacityError
	if s.cfg.MaxStreams > 0 && len(s.streams) >= s.cfg.MaxStreams {
		capErr = &CapacityError{
			Streams: len(s.streams), SLO: s.cfg.SLO,
			Reason: fmt.Sprintf("at MaxStreams %d", s.cfg.MaxStreams),
		}
	} else if s.cfg.SLO > 0 {
		if proj := s.projectedP99Locked(len(s.streams) + 1); proj > s.cfg.SLO {
			capErr = &CapacityError{
				Streams: len(s.streams), Projected: proj, SLO: s.cfg.SLO,
				Reason: fmt.Sprintf("projected p99 %v exceeds SLO %v at %d streams",
					proj, s.cfg.SLO, len(s.streams)+1),
			}
		}
	}
	if capErr != nil {
		s.rejected++
		if s.cfg.Hook != nil {
			sample = Sample{Kind: "reject", Stream: -1, Pending: s.pending,
				InFlight: s.inflight, Streams: len(s.streams)}
			hooked = true
		}
		s.mu.Unlock()
		if hooked {
			s.cfg.Hook(sample)
		}
		return nil, capErr
	}
	id := s.nextID
	s.nextID++
	win, err := edge.NewWindower(s.winLen, s.strideN)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	st := &Stream{
		s:       s,
		id:      id,
		win:     win,
		deb:     edge.NewDebouncer(s.cfg.Window),
		reorder: map[int]scored{},
	}
	s.streams[id] = st
	s.admitted++
	s.mu.Unlock()
	return st, nil
}

// projectedP99Locked estimates the p99 serving latency (window ready →
// label applied) with n open streams. Each stream offers one window per
// stride, each window costs the measured EWMA service time, and Slots
// scorings proceed concurrently, so utilisation is ρ(n) = n·svc/(stride·
// slots). The observed p99 (or, cold, MaxDelay + svc) is inflated by
// (1-ρnow)/(1-ρ(n)) — the M/M/1 waiting-time scaling, a deliberately
// pessimistic heuristic — and any n at or past Headroom·capacity projects
// to +inf: tail latency under a bursty arrival process explodes well
// before ρ = 1.
func (s *Server) projectedP99Locked(n int) time.Duration {
	base := s.cfg.MaxDelay + time.Duration(s.svcEWMA*float64(time.Second))
	if s.winHist.n >= int64(s.cfg.MinSamples) {
		base = s.winHist.quantile(0.99)
	}
	if s.svcEWMA <= 0 {
		return base // cold start: no throughput estimate yet
	}
	capacity := float64(s.cfg.Slots) / s.svcEWMA // windows/second
	rho := float64(n) / s.stride / capacity
	if rho >= s.cfg.Headroom {
		return maxDuration
	}
	rhoNow := float64(len(s.streams)) / s.stride / capacity
	if rhoNow > 0.95 {
		rhoNow = 0.95
	}
	return time.Duration(float64(base) * (1 - rhoNow) / (1 - rho))
}

// takeBatchLocked removes up to MaxBatch live windows from the queue
// front, discarding shed ones. Callers check s.pending > 0 first.
func (s *Server) takeBatchLocked() []*window {
	batch := make([]*window, 0, min(s.pending, s.cfg.MaxBatch))
	i := 0
	for ; i < len(s.q) && len(batch) < s.cfg.MaxBatch; i++ {
		w := s.q[i]
		w.flushed = true
		if w.shed {
			continue
		}
		batch = append(batch, w)
	}
	s.q = s.q[i:]
	s.pending -= len(batch)
	if len(batch) > 0 {
		s.inflight++
		s.batches++
	}
	return batch
}

// flushSizeLocked drains every full batch the queue holds, returning the
// batches to launch after unlock.
func (s *Server) flushSizeLocked(samples *[]Sample) [][]*window {
	var batches [][]*window
	for s.pending >= s.cfg.MaxBatch {
		b := s.takeBatchLocked()
		if len(b) == 0 {
			break
		}
		batches = append(batches, b)
		if s.cfg.Hook != nil {
			*samples = append(*samples, Sample{Kind: "flush", Stream: -1, Batch: len(b),
				Pending: s.pending, InFlight: s.inflight, Streams: len(s.streams)})
		}
	}
	return batches
}

// flushDue flushes everything pending once the oldest live window has
// waited MaxDelay — the deadline half of the batcher (the size half lives
// on the Push path). The background flusher calls it on a ticker;
// virtual-clock tests call it directly after advancing the clock.
func (s *Server) flushDue() {
	now := s.cfg.Now()
	var samples []Sample
	var batches [][]*window
	s.mu.Lock()
	for len(s.q) > 0 && s.q[0].shed {
		s.q = s.q[1:]
	}
	if s.pending > 0 && now.Sub(s.q[0].ready) >= s.cfg.MaxDelay {
		for s.pending > 0 {
			b := s.takeBatchLocked()
			if len(b) == 0 {
				break
			}
			batches = append(batches, b)
			if s.cfg.Hook != nil {
				samples = append(samples, Sample{Kind: "flush", Stream: -1, Batch: len(b),
					Pending: s.pending, InFlight: s.inflight, Streams: len(s.streams)})
			}
		}
	}
	s.mu.Unlock()
	for _, b := range batches {
		s.launch(b)
	}
	s.emit(samples)
}

// Flush submits every pending window regardless of batch size or age —
// the drain path (Close) and the test hook.
func (s *Server) Flush() {
	var samples []Sample
	var batches [][]*window
	s.mu.Lock()
	for s.pending > 0 {
		b := s.takeBatchLocked()
		if len(b) == 0 {
			break
		}
		batches = append(batches, b)
		if s.cfg.Hook != nil {
			samples = append(samples, Sample{Kind: "flush", Stream: -1, Batch: len(b),
				Pending: s.pending, InFlight: s.inflight, Streams: len(s.streams)})
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, b := range batches {
		s.launch(b)
	}
	s.emit(samples)
}

// alarmFire carries one alarm out of the lock to the OnAlarm callback.
type alarmFire struct {
	id  int
	ev  edge.Event
	lat time.Duration
}

// launch scores one batch asynchronously: submit through the Scorer, wait
// for the labels, and deliver each window's outcome to its stream for
// in-order application. A failed scoring task (after the runtime's retry
// machinery gave up) skips its windows — counted in ScoreErrors, never
// silently — and the streams' sequences advance past them.
func (s *Server) launch(batch []*window) {
	go func() {
		start := s.cfg.Now()
		wins := make([][]float64, len(batch))
		for i, w := range batch {
			wins[i] = w.data
		}
		fut := s.cfg.Score(s.rt.Main(), wins, s.fs)
		v, err := s.rt.Main().Get(fut)
		now := s.cfg.Now()
		var labels []int
		if err == nil {
			var ok bool
			labels, ok = v.([]int)
			if !ok {
				err = fmt.Errorf("serve: scorer returned %T, want []int", v)
			} else if len(labels) != len(batch) {
				err = fmt.Errorf("serve: scorer returned %d labels for %d windows", len(labels), len(batch))
			}
		}
		var alarms []alarmFire
		var samples []Sample
		s.mu.Lock()
		s.inflight--
		for _, w := range batch {
			w.data = nil // scored: the stream's queue may still point at w
		}
		per := now.Sub(start).Seconds() / float64(len(batch))
		if per > 0 {
			if s.svcEWMA == 0 {
				s.svcEWMA = per
			} else {
				s.svcEWMA += 0.2 * (per - s.svcEWMA)
			}
		}
		if err != nil {
			s.scoreErrs += int64(len(batch))
			for _, w := range batch {
				w.st.deliverLocked(w.seq, scored{skip: true, end: w.end}, now, &alarms, &samples)
			}
			if s.cfg.Hook != nil {
				samples = append(samples, Sample{Kind: "error", Stream: -1, Batch: len(batch),
					Pending: s.pending, InFlight: s.inflight, Streams: len(s.streams)})
			}
		} else {
			for i, w := range batch {
				w.st.deliverLocked(w.seq, scored{label: labels[i], end: w.end, ready: w.ready}, now, &alarms, &samples)
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		if s.cfg.OnAlarm != nil {
			for _, a := range alarms {
				s.cfg.OnAlarm(a.id, a.ev, a.lat)
			}
		}
		s.emit(samples)
	}()
}

func (s *Server) emit(samples []Sample) {
	if s.cfg.Hook == nil {
		return
	}
	for _, sm := range samples {
		s.cfg.Hook(sm)
	}
}

// WaitIdle blocks until no windows are pending and no batches are in
// flight. Pending windows only drain when flushed, so callers pair it with
// Flush (Close does both).
func (s *Server) WaitIdle() {
	s.mu.Lock()
	for s.pending > 0 || s.inflight > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close stops admission and ingest, flushes the pending windows, waits for
// every in-flight batch to apply, and stops the background flusher. The
// runtime is left usable. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.stop != nil {
		close(s.stop)
		<-s.flusherRIP
	}
	s.Flush()
	s.WaitIdle()
	return nil
}

// Metrics is a point-in-time snapshot of the serving plane.
type Metrics struct {
	// Streams is the open-stream count; Admitted/Rejected the admission
	// totals.
	Streams            int
	Admitted, Rejected int64
	// Windows counts every window cut; Scored those applied with a label;
	// Shed those dropped by backpressure; ScoreErrors those skipped by a
	// failed scoring task. Windows == Scored + Shed + ScoreErrors +
	// (pending + in-flight, not yet terminal).
	Windows, Scored, Shed, ScoreErrors int64
	// Alarms counts debounced alarms across all streams.
	Alarms int64
	// Pending and InFlight are the live queue depths; Batches the flush
	// total.
	Pending, InFlight int
	Batches           int64
	// WindowP50/P99 are serving-latency quantiles (window ready → label
	// applied); AlarmP50/P99 the same restricted to alarm windows.
	WindowP50, WindowP99 time.Duration
	AlarmP50, AlarmP99   time.Duration
	// ServicePerWindow is the EWMA per-window scoring turnaround feeding
	// the admission projection.
	ServicePerWindow time.Duration
}

// Metrics returns a consistent snapshot.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Streams:  len(s.streams),
		Admitted: s.admitted, Rejected: s.rejected,
		Windows: s.windows, Scored: s.scoredN, Shed: s.shedTotal, ScoreErrors: s.scoreErrs,
		Alarms:  s.alarms,
		Pending: s.pending, InFlight: s.inflight, Batches: s.batches,
		WindowP50: s.winHist.quantile(0.50), WindowP99: s.winHist.quantile(0.99),
		AlarmP50: s.alarmHist.quantile(0.50), AlarmP99: s.alarmHist.quantile(0.99),
		ServicePerWindow: time.Duration(s.svcEWMA * float64(time.Second)),
	}
}
