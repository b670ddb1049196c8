package serve

import (
	"time"

	"taskml/internal/edge"
)

// Stream is one admitted patient stream: a Windower cutting analysis
// windows on ingest and a Debouncer applying scored labels in stream
// order, with a bounded ingress buffer in between. Exactly one goroutine
// may Push to a given stream; distinct streams push concurrently.
type Stream struct {
	s   *Server
	id  int
	win *edge.Windower // touched only by the pushing goroutine

	// The fields below are guarded by s.mu.
	deb      *edge.Debouncer
	queued   []*window // cut but not yet flushed into a batch (prefix may be flushed/shed)
	nextSeq  int
	applySeq int
	reorder  map[int]scored
	windows  int64
	shed     int64
	scoredN  int64
	alarms   int64
	events   []edge.Event
	closed   bool
}

// ID returns the stream's server-assigned identifier.
func (st *Stream) ID() int { return st.id }

// Push appends raw samples to the stream, cutting every analysis window
// they complete and enqueueing the windows for micro-batched scoring.
// When the stream's ingress buffer is full, the oldest unflushed window is
// shed to admit the new one — freshest-data-wins, with the drop counted on
// the stream and the server. Push never blocks on scoring.
func (st *Stream) Push(samples ...float64) error {
	st.win.Push(samples...)
	s := st.s
	type cut struct {
		end  int
		data []float64
	}
	var cuts []cut
	for {
		view, end, ok := st.win.Peek()
		if !ok {
			break
		}
		data := make([]float64, len(view))
		copy(data, view)
		st.win.Advance()
		cuts = append(cuts, cut{end: end, data: data})
	}
	if len(cuts) == 0 {
		return nil
	}
	now := s.cfg.Now()
	var alarms []alarmFire
	var obs []Sample
	s.mu.Lock()
	if s.closed || st.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	for _, c := range cuts {
		// Drop the already-flushed (or shed) prefix: those windows left
		// the ingress buffer for the batcher and no longer occupy it.
		for len(st.queued) > 0 && (st.queued[0].flushed || st.queued[0].shed) {
			st.queued = st.queued[1:]
		}
		if len(st.queued) >= s.cfg.StreamBuffer {
			victim := st.queued[0]
			st.queued = st.queued[1:]
			victim.shed = true // the batcher queue discards it on contact
			victim.data = nil
			s.pending--
			st.shed++
			s.shedTotal++
			st.deliverLocked(victim.seq, scored{skip: true}, now, &alarms, &obs)
			if s.cfg.Hook != nil {
				obs = append(obs, Sample{Kind: "shed", Stream: st.id,
					Pending: s.pending, InFlight: s.inflight, Streams: len(s.streams),
					Shed: s.shedTotal})
			}
		}
		w := &window{st: st, seq: st.nextSeq, end: c.end, data: c.data, ready: now}
		st.nextSeq++
		st.queued = append(st.queued, w)
		s.q = append(s.q, w)
		s.pending++
		s.windows++
		st.windows++
	}
	batches := s.flushSizeLocked(&obs)
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, b := range batches {
		s.launch(b)
	}
	if s.cfg.OnAlarm != nil {
		for _, a := range alarms {
			s.cfg.OnAlarm(a.id, a.ev, a.lat)
		}
	}
	s.emit(obs)
	return nil
}

// deliverLocked records one window's terminal outcome and drains the
// reorder buffer: outcomes apply to the Debouncer strictly in stream
// order, so a batch completing out of order waits for its predecessors.
// skip outcomes (shed or score-error) advance the sequence without
// touching the debounce state — the documented gap semantics.
func (st *Stream) deliverLocked(seq int, sc scored, now time.Time, alarms *[]alarmFire, samples *[]Sample) {
	s := st.s
	st.reorder[seq] = sc
	for {
		cur, ok := st.reorder[st.applySeq]
		if !ok {
			return
		}
		delete(st.reorder, st.applySeq)
		st.applySeq++
		if cur.skip {
			continue
		}
		ev := st.deb.Apply(cur.end, cur.label)
		lat := now.Sub(cur.ready)
		s.winHist.add(lat)
		s.scoredN++
		st.scoredN++
		if s.cfg.RecordEvents {
			st.events = append(st.events, ev)
		}
		if ev.Alarm {
			s.alarms++
			st.alarms++
			s.alarmHist.add(lat)
			if s.cfg.OnAlarm != nil {
				*alarms = append(*alarms, alarmFire{id: st.id, ev: ev, lat: lat})
			}
			if s.cfg.Hook != nil {
				*samples = append(*samples, Sample{Kind: "alarm", Stream: st.id,
					Pending: s.pending, InFlight: s.inflight, Streams: len(s.streams),
					LatencyUS: lat.Microseconds()})
			}
		}
	}
}

// AlarmRaised reports whether this stream's debounced alarm has fired.
func (st *Stream) AlarmRaised() bool {
	st.s.mu.Lock()
	defer st.s.mu.Unlock()
	return st.deb.AlarmRaised()
}

// Events returns a copy of the applied events. Empty unless
// Config.RecordEvents is set.
func (st *Stream) Events() []edge.Event {
	st.s.mu.Lock()
	defer st.s.mu.Unlock()
	out := make([]edge.Event, len(st.events))
	copy(out, st.events)
	return out
}

// StreamStats is one stream's accounting.
type StreamStats struct {
	// Windows counts every window cut from this stream; Scored those
	// applied with a label; Shed those dropped by backpressure; Alarms the
	// debounced alarms raised.
	Windows, Scored, Shed, Alarms int64
}

// Stats returns the stream's counters.
func (st *Stream) Stats() StreamStats {
	st.s.mu.Lock()
	defer st.s.mu.Unlock()
	return StreamStats{Windows: st.windows, Scored: st.scoredN, Shed: st.shed, Alarms: st.alarms}
}

// Close ends the stream: it frees the admission slot immediately, while
// windows already queued or in flight still score and apply. Pushing to a
// closed stream returns ErrClosed. Close is idempotent.
func (st *Stream) Close() {
	st.s.mu.Lock()
	if !st.closed {
		st.closed = true
		delete(st.s.streams, st.id)
	}
	st.s.mu.Unlock()
}
