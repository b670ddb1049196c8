package serve

import (
	"errors"
	"fmt"
	"math"
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
	// MaxBatch caps a batch: a scorer that comes free takes at most this
	// many of the oldest waiting windows. Default 64.
	MaxBatch int
	// MaxDelay is ignored. A window waits only while every scorer is busy,
	// never for a batch to fill, so there is no deadline to bound.
	//
	// Deprecated: kept so that configurations which set it still compile.
	MaxDelay time.Duration
	// StreamBuffer bounds each stream's ingress buffer: windows cut but
	// not yet taken into a batch. When a new window would exceed it, the
	// stream's oldest buffered window is shed — counted per stream and on
	// the server, never silent. Default 4.
	StreamBuffer int
	// MaxStreams is a hard admission cap; 0 means no fixed cap.
	MaxStreams int

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
}

// Sample is one serving-plane observation, exported through Config.Hook —
// the serve counterpart of exec.Event. trace.Collector.AddServeSample
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
	// Pending is how many windows wait for a scorer loop after the event.
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

const (
	// headroom is the utilisation ceiling of the admission projection: a
	// stream whose steady-state load would push utilisation to or past it
	// is rejected outright.
	headroom = 0.85
	// minSamples is how many latency observations the projection needs
	// before it trusts the measured p99 over the cold-start estimate.
	minSamples = 32
)

// window is one cut analysis window travelling through the serving
// pipeline: stream ingress buffer → waiting queue → scoring batch →
// in-order apply.
type window struct {
	st    *Stream
	seq   int       // per-stream apply order
	end   int       // stream sample index past the window (edge.Debouncer.Apply)
	data  []float64 // the samples; nil once the window is scored or shed
	ready time.Time // when the window became ready (latency epoch)
	shed  bool      // dropped by backpressure; the queue discards it
	taken bool      // already taken into a batch
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
// concurrent streams onto one task runtime, handing ready windows across
// streams to one scorer loop per runtime slot — each takes whatever waits
// when it comes free, so batches grow with the load and a lone window waits
// for nothing — and enforcing per-stream latency SLOs with admission
// control and bounded-buffer shedding.
type Server struct {
	cfg     Config
	rt      *compss.Runtime
	fs      float64
	stride  float64 // seconds between windows per stream (offered-load unit)
	winLen  int
	strideN int

	mu       sync.Mutex
	cond     *sync.Cond // a batch was delivered, or a window shed: WaitIdle
	work     *sync.Cond // a window waits, or the server closed: the scorer loops
	streams  map[int]*Stream
	nextID   int
	q        []*window // FIFO by ready time across all streams
	pending  int       // non-shed windows in q: waiting for a scorer loop
	inflight int       // batches scoring: at most the runtime's slots

	winHist   latHist
	alarmHist latHist
	// svc is the measured seconds a window costs once batches fill
	// (costFit.perWindow over recent batches).
	svc  float64
	cost costFit

	admitted, rejected          int64
	windows, scoredN, shedTotal int64
	scoreErrs, alarms, batches  int64
	closed                      bool
}

// New builds a Server submitting onto rt and starts one scorer loop per
// runtime slot (compss.Runtime.Slots).
// The caller owns the runtime (and its backend); Close drains the server and
// ends the loops but leaves the runtime usable.
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
	if cfg.StreamBuffer <= 0 {
		cfg.StreamBuffer = 4
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
	s.work = sync.NewCond(&s.mu)
	for range rt.Slots() {
		go s.scorer()
	}
	return s, nil
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
// stride, each window costs what it costs in a full batch (svc), and one
// scoring per runtime slot proceeds at once, so utilisation is ρ(n) =
// n·svc/(stride·slots). The observed p99 (or, cold, svc: a window scores the
// moment it is cut while a scorer is free) is inflated by
// (1-ρnow)/(1-ρ(n)) — the M/M/1 waiting-time scaling, a deliberately
// pessimistic heuristic — and any n at or past headroom·capacity projects
// to +inf: tail latency under a bursty arrival process explodes well
// before ρ = 1.
func (s *Server) projectedP99Locked(n int) time.Duration {
	base := time.Duration(s.svc * float64(time.Second))
	if s.winHist.n >= minSamples {
		base = s.winHist.quantile(0.99)
	}
	if s.svc <= 0 {
		return base // cold start: no throughput estimate yet
	}
	capacity := float64(s.rt.Slots()) / s.svc // windows/second
	rho := float64(n) / s.stride / capacity
	if rho >= headroom {
		return maxDuration
	}
	rhoNow := float64(len(s.streams)) / s.stride / capacity
	if rhoNow > 0.95 {
		rhoNow = 0.95
	}
	return time.Duration(float64(base) * (1 - rhoNow) / (1 - rho))
}

// takeBatchLocked removes up to MaxBatch live windows from the queue
// front, discarding shed ones, and counts the batch in flight. Callers check
// s.pending > 0 first, so the batch is never empty.
func (s *Server) takeBatchLocked(samples *[]Sample) []*window {
	batch := make([]*window, 0, min(s.pending, s.cfg.MaxBatch))
	i := 0
	for ; i < len(s.q) && len(batch) < s.cfg.MaxBatch; i++ {
		w := s.q[i]
		w.taken = true
		if w.shed {
			continue
		}
		batch = append(batch, w)
	}
	s.q = s.q[i:]
	s.pending -= len(batch)
	s.inflight++
	s.batches++
	if s.cfg.Hook != nil {
		*samples = append(*samples, Sample{Kind: "flush", Stream: -1, Batch: len(batch),
			Pending: s.pending, InFlight: s.inflight, Streams: len(s.streams)})
	}
	return batch
}

// Flush does nothing: a window leaves for scoring as soon as a scorer loop
// is free, so none waits for a flush. WaitIdle alone drains the server.
//
// Deprecated: kept for callers written against the deadline batcher.
func (s *Server) Flush() {}

// alarmFire carries one alarm out of the lock to the OnAlarm callback.
type alarmFire struct {
	id  int
	ev  edge.Event
	lat time.Duration
}

// scorer is one of the scorer loops, one per runtime slot. As soon as it is
// free it takes up to MaxBatch of the oldest waiting windows and scores them,
// so a lone window on an idle server leaves at once and a busy server batches
// whatever arrived meanwhile, with no timer. It parks while no window waits
// and returns once the server is closed and none does.
func (s *Server) scorer() {
	s.mu.Lock()
	for {
		for s.pending == 0 && !s.closed {
			s.work.Wait()
		}
		if s.pending == 0 {
			break
		}
		var samples []Sample
		batch := s.takeBatchLocked(&samples)
		s.mu.Unlock()
		s.emit(samples)
		s.score(batch)
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// score scores one batch — submit through the Scorer onto the runtime's
// detached context, wait for the labels — and delivers each window's outcome to its stream for in-order
// application. A failed scoring task (after the runtime's retry machinery
// gave up) skips its windows — counted in ScoreErrors, never silently — and
// the streams' sequences advance past them.
func (s *Server) score(batch []*window) {
	tc := s.rt.Detached()
	start := time.Now()
	wins := make([][]float64, len(batch))
	for i, w := range batch {
		wins[i] = w.data
	}
	v, err := tc.Get(s.cfg.Score(tc, wins, s.fs))
	now := time.Now()
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
	if turn := now.Sub(start).Seconds(); turn > 0 {
		s.cost.add(float64(len(batch)), turn)
		s.svc = s.cost.perWindow(s.cfg.MaxBatch)
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
}

func (s *Server) emit(samples []Sample) {
	if s.cfg.Hook == nil {
		return
	}
	for _, sm := range samples {
		s.cfg.Hook(sm)
	}
}

// WaitIdle blocks until no window waits and no batch is in flight.
func (s *Server) WaitIdle() {
	s.mu.Lock()
	for s.pending > 0 || s.inflight > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close stops admission and ingest, waits for every waiting window and
// in-flight batch to apply, and lets the scorer loops return. The runtime is
// left usable. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.work.Broadcast()
	s.mu.Unlock()
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
	// Pending and InFlight are the live queue depths: windows waiting for a
	// scorer, batches scoring. Batches is the total of batches scored.
	Pending, InFlight int
	Batches           int64
	// WindowP50/P99 are serving-latency quantiles (window ready → label
	// applied); AlarmP50/P99 the same restricted to alarm windows.
	WindowP50, WindowP99 time.Duration
	AlarmP50, AlarmP99   time.Duration
	// ServicePerWindow is the per-window scoring cost at full batches feeding
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
		ServicePerWindow: time.Duration(s.svc * float64(time.Second)),
	}
}
