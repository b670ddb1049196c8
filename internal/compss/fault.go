// Fault injection: a FaultPlan declared in Config.Faults makes chosen task
// attempts fail deterministically, which is how the fault-tolerance layer is
// tested and how cmd/scaling's -faults sweep produces reproducible recovery
// costs. An injected attempt never runs the real body — it fails in its
// place — so a retried task still computes its output exactly once and the
// workflow's results stay bit-identical to a fault-free run.
package compss

import "fmt"

// FaultMode selects how an injected attempt dies.
type FaultMode int

const (
	// FaultError makes the attempt return an error wrapping ErrInjectedFault.
	FaultError FaultMode = iota
	// FaultPanic makes the attempt panic (exercises the recover path).
	FaultPanic
)

// Fault selects a set of task attempts to kill. Matching, in priority order:
//
//   - Name != "": tasks of that kind. Nth picks the occurrence (0-based, in
//     graph-ID order among same-named tasks); Nth < 0 hits every occurrence.
//     Occurrence order is deterministic when same-named tasks are submitted
//     from one context; for concurrently-submitted kinds prefer Nth: -1.
//   - EveryNth > 0: tasks whose graph ID is a multiple of EveryNth.
//   - otherwise: the task with graph ID == TaskID (zero value targets task 0).
//
// The first Attempts attempts of a matched task are killed (0 defaults to 1;
// negative kills every attempt), in Mode, after AtFraction of the task's
// virtual cost (default 0.5) — the fraction only affects the replayed
// schedule, never real execution.
type Fault struct {
	Name     string
	Nth      int
	EveryNth int
	TaskID   int
	Attempts int
	Mode     FaultMode
	// AtFraction is the fraction of the task's virtual cost consumed before
	// the failure instant, in (0, 1]; out-of-range values mean 0.5.
	AtFraction float64
}

func (f *Fault) matches(id int, name string, occ int) bool {
	switch {
	case f.Name != "":
		return name == f.Name && (f.Nth < 0 || occ == f.Nth)
	case f.EveryNth > 0:
		return id%f.EveryNth == 0
	default:
		return id == f.TaskID
	}
}

// fraction returns the virtual cost fraction charged for this failure.
func (f *Fault) fraction() float64 {
	if f.AtFraction > 0 && f.AtFraction <= 1 {
		return f.AtFraction
	}
	return 0.5
}

// FaultPlan is a deterministic fault-injection schedule consulted once per
// attempt. The zero plan (or a nil *FaultPlan) injects nothing.
type FaultPlan struct {
	Faults []Fault
}

// match returns the first fault that kills this attempt, or nil.
func (p *FaultPlan) match(id int, name string, occ, attempt int) *Fault {
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		n := f.Attempts
		if n == 0 {
			n = 1
		}
		if (n < 0 || attempt < n) && f.matches(id, name, occ) {
			return f
		}
	}
	return nil
}

// injectedBody replaces a task body for one doomed attempt.
func injectedBody(attempt int, mode FaultMode) MultiTaskFunc {
	return func(_ *TaskCtx, _ []any) ([]any, error) {
		if mode == FaultPanic {
			panic(fmt.Sprintf("injected fault (attempt %d)", attempt))
		}
		return nil, fmt.Errorf("attempt %d: %w", attempt, ErrInjectedFault)
	}
}
