// Held results: over a backend, a task whose outputs nobody is known to read
// on this side may complete with an *exec.Held per output, the value staying
// on its worker. Markers flow to backend consumers as they are;
// the two places that read a value here — Get/GetAll and the arguments of a
// body that runs here — go through values, which pulls, and rebuilds from
// lineage what no worker has any more: a task with a held output keeps its
// taskState.args past completion (letGo) and registered bodies are
// argument-pure, so the producer runs again as an ordinary request,
// past its own lost inputs, one rerun at a time per task, outside the retry
// budget and the fault plan. Observers see a Retry after the producer's End,
// never a second End. A loss costs round trips, never a wrong answer.
package compss

import (
	"errors"
	"fmt"

	"taskml/internal/exec"
)

// readHere reports whether someone on this side is known to read st's
// outputs: a Get that waits for it, or a child whose body runs here.
func (st *taskState) readHere() bool {
	if st.want.Load() {
		return true
	}
	st.chMu.Lock()
	defer st.chMu.Unlock()
	for _, c := range st.children {
		if c.execName == "" {
			return true
		}
	}
	return false
}

// values reads the outputs behind fs — completed, unfailed — bringing home
// in one Pull the ones a worker still holds, and rebuilding what is lost.
func (rt *Runtime) values(fs []*Future) ([]any, error) {
	out := make([]any, len(fs))
	var held []*exec.Held
	for i, f := range fs {
		out[i] = f.st.vals[f.idx]
		if h, ok := out[i].(*exec.Held); ok {
			held = append(held, h)
		}
	}
	lost := len(held) > 0 && rt.cfg.Backend.Pull(held) != nil
	for i, f := range fs {
		h, ok := out[i].(*exec.Held)
		if !ok {
			continue
		}
		if _, home := h.Value(); !home && lost {
			if err := rt.recompute(f.st); err != nil {
				return out, err
			}
		}
		out[i], _ = h.Value()
	}
	return out, nil
}

// restore brings home every future among args.
func (rt *Runtime) restore(args []any) error {
	var fs []*Future
	eachFuture(args, func(f *Future) { fs = append(fs, f) })
	_, err := rt.values(fs)
	return err
}

// recompute runs p again because an output it left on a worker is gone, and
// fills p's markers from the reply, which carries the values. p completed long
// ago: its chMu is free to serialise the reruns (a submit that names p's
// future waits for one in progress).
func (rt *Runtime) recompute(p *taskState) error {
	p.chMu.Lock()
	defer p.chMu.Unlock()
	lost := false
	for _, v := range p.vals {
		_, home := v.(*exec.Held).Value()
		lost = lost || !home
	}
	if !lost {
		return nil // a rerun ended while this one waited
	}
	p.last++
	rt.emit(EventRetry, p, int(p.last), nil, "", false)
	res := rt.ship([]*taskState{p}, rt.resolveArgs(p.args, nil), true)
	if res.err != nil {
		return &TaskError{ID: p.id, Name: p.name, Err: fmt.Errorf("recomputing a lost output: %w", errors.Unwrap(res.err))}
	}
	for i, v := range res.vals {
		p.vals[i].(*exec.Held).Fill(v)
	}
	return nil
}
