package compss

import (
	"errors"
	"fmt"
)

// ErrInjectedFault marks a failure produced by a FaultPlan rather than the
// task body. Tests use errors.Is to tell injected failures from organic ones.
var ErrInjectedFault = errors.New("injected fault")

// TaskError is the failure of a task's own execution: its body returned an
// error or panicked, or one of its nested children failed, on every attempt
// its retry budget allowed. ID and Name identify the task in the captured
// graph; Err is the underlying cause, reachable through errors.Is/As.
type TaskError struct {
	ID   int
	Name string
	Err  error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("task %d (%s): %v", e.ID, e.Name, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// DepError is the failure of a task that never ran because a dependency
// failed. ID and Name identify the task that could not run; Cause is always
// the originating failure (a *TaskError for the task that actually broke),
// never another DepError — a failure deep in a chain surfaces as one
// "dependency failed" plus the root cause, not one wrapper per hop.
type DepError struct {
	ID    int
	Name  string
	Cause error
}

func (e *DepError) Error() string {
	return fmt.Sprintf("task %d (%s): dependency failed: %v", e.ID, e.Name, e.Cause)
}

func (e *DepError) Unwrap() error { return e.Cause }

// depError wraps a dependency failure, collapsing chains: if err is already
// a DepError (the dependency itself never ran), the new error points at the
// same root cause instead of stacking another layer.
func depError(id int, name string, err error) error {
	var de *DepError
	if errors.As(err, &de) {
		return &DepError{ID: id, Name: name, Cause: de.Cause}
	}
	return &DepError{ID: id, Name: name, Cause: err}
}
