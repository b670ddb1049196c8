package compss

import (
	"sync"
	"time"
)

// AttemptStat is the timing of one executed attempt of a task: how long it
// waited for a worker slot after becoming runnable, how long its body ran,
// and how it ended. The per-attempt split is what makes retry cost
// attributable — TaskStat.Queued/Duration are its sums.
type AttemptStat struct {
	Queued  time.Duration // runnable (deps ready / retry queued) → body start
	Run     time.Duration // body start → body return
	Outcome string        // "ok", "error" or "panic"
	Stolen  bool          // the attempt ran on a worker that stole the task
}

// TaskStat records the real execution of one task (wall-clock, not virtual
// time): useful for profiling the Go implementation itself and for
// validating that the analytic cost model orders kernels sensibly.
type TaskStat struct {
	ID       int
	Name     string
	WaitDeps time.Duration // submission → dependencies resolved
	Queued   time.Duration // dependencies resolved → body start (worker-slot wait), summed over attempts
	Duration time.Duration // body execution, summed over attempts
	Attempts int           // executed attempts; 0 means a dependency failed and the body never ran
	// QueuedStolen is the portion of Queued charged to attempts another
	// worker stole: the task waited that long on its origin deque before a
	// thief took it. Queued − QueuedStolen is the locally-dispatched wait,
	// so the split shows whether slot-wait time comes from a busy owner or
	// from steal migration latency.
	QueuedStolen time.Duration
	// Stolen counts the attempts that ran via a steal; Attempts − Stolen ran
	// on the worker that enqueued them (or the enqueuing goroutine itself).
	Stolen int
	// PerAttempt breaks Queued/Duration down attempt by attempt, in attempt
	// order; len(PerAttempt) == Attempts.
	PerAttempt []AttemptStat
	Failed     bool // the task's terminal outcome was a failure (deps or exhausted attempts)
}

// statBuild accumulates one task's in-flight timings between its Submit
// event and its terminal event.
type statBuild struct {
	submitted time.Time
	runnable  time.Time // deps-ready or retry instant: start of the current slot wait
	started   time.Time // current attempt's body start
	stat      TaskStat
}

// StatsObserver is the built-in profiling Observer: it folds the runtime's
// event stream back into per-task TaskStats, preserving the semantics of the
// pre-Observer stats recorder (WaitDeps / Queued / Duration split, one stat
// per submitted task, dep-failed tasks included) while adding the
// per-attempt breakdown. Attach it via Config.Observers.
type StatsObserver struct {
	mu    sync.Mutex
	open  map[int]*statBuild
	stats []TaskStat
}

// NewStatsObserver returns an empty stats sink.
func NewStatsObserver() *StatsObserver {
	return &StatsObserver{open: map[int]*statBuild{}}
}

var _ Observer = (*StatsObserver)(nil)

// Observe folds one event into its task's in-flight build.
func (s *StatsObserver) Observe(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Kind == EventSubmit {
		s.open[ev.Task] = &statBuild{
			submitted: ev.Time,
			stat:      TaskStat{ID: ev.Task, Name: ev.Name},
		}
		return
	}
	b := s.open[ev.Task]
	if b == nil {
		return
	}
	switch ev.Kind {
	case EventDepsReady:
		b.stat.WaitDeps = ev.Time.Sub(b.submitted)
		b.runnable = ev.Time
	case EventStart:
		q := ev.Time.Sub(b.runnable)
		b.started = ev.Time
		b.stat.Queued += q
		if ev.Stolen {
			b.stat.QueuedStolen += q
			b.stat.Stolen++
		}
		b.stat.Attempts++
		b.stat.PerAttempt = append(b.stat.PerAttempt, AttemptStat{Queued: q, Stolen: ev.Stolen})
	case EventEnd:
		b.closeAttempt(ev.Time, "ok")
		s.finalize(ev.Task, b)
	case EventRetry:
		b.runnable = ev.Time
	case EventFailure:
		if ev.Attempt < 0 { // dependency failure: the body never ran
			b.stat.WaitDeps = ev.Time.Sub(b.submitted)
			b.stat.Failed = true
			s.finalize(ev.Task, b)
			return
		}
		b.closeAttempt(ev.Time, ev.Mode)
		if ev.Final {
			b.stat.Failed = true
			s.finalize(ev.Task, b)
		}
	}
}

// closeAttempt charges the current attempt's body time and outcome.
func (b *statBuild) closeAttempt(end time.Time, outcome string) {
	d := end.Sub(b.started)
	b.stat.Duration += d
	if n := len(b.stat.PerAttempt); n > 0 {
		b.stat.PerAttempt[n-1].Run = d
		b.stat.PerAttempt[n-1].Outcome = outcome
	}
}

// finalize moves a finished build into the stats snapshot. Caller holds s.mu.
func (s *StatsObserver) finalize(task int, b *statBuild) {
	s.stats = append(s.stats, b.stat)
	delete(s.open, task)
}

// Stats returns a snapshot of the completed tasks' stats, in completion
// order.
func (s *StatsObserver) Stats() []TaskStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TaskStat, len(s.stats))
	copy(out, s.stats)
	return out
}
