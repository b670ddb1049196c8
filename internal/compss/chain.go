// Chain dispatch: one backend round trip for a ready task and every task only
// it still holds back.
//
// A remote task costs a round trip however small its body, and a fine-grained
// DAG (a forest tree split into eleven tasks) is mostly such tasks in a row.
// A carrier that takes a ready backend task therefore takes its dependents
// along: breadth-first through taskState.children, every submitted task whose
// pending count equals the number of its future arguments produced inside the
// chain — every other producer is done, the submission sentinel is gone —
// joins, up to chainCap members. Followers are marked, so becomeReady leaves
// them to the runner, and the list goes to the backend as one request frame
// on one slot (exec.Backend.ExecuteChain), arguments produced inside it as
// bare references. What it delays: a dependent of an early member that is
// not a member itself becomes ready when the response arrives, at most
// chainCap−1 bodies after that member's body returned.
//
// A failure costs round trips, never a wrong answer. Only first attempts are
// chained, on a runtime without a fault plan; a fleet offers a chain only to
// a member that caches. A follower that comes back without values — it
// failed, an earlier member did, a reference was evicted or never cached, an
// argument was lost — is unmarked and runs the ordinary way, as attempt 0,
// once its producers have completed; a head whose body or connection failed
// is a failed attempt 0 under the ordinary retry-then-fail contract, and its
// retry travels alone. Every mark is cleared before anything completes.
//
// Observers see Submit < DepsReady < Start < End for every member. The
// followers' Start and End are laid end to end, backwards from the arrival of
// the response, from the body times the worker reports; the head ends where
// the first follower starts, so it carries the frame's wire time as a lone
// remote task does and the members' run times add up to the chain's.
package compss

import (
	"errors"
	"time"

	"taskml/internal/exec"
)

// chainCap bounds a chain's length. A constant, not a knob; the sweep on the
// cv_remote pass (2 workers, 2516 requests; unchained 889 ms), median ms and
// frames a pass by cap: 2 → 782 / 1440, 4 → 787 / 1216, 8 → 727 / 576, 12 →
// 690 / 370, 16 → 690 / 361, 32 → 710 / 355, 128 → 724 / 352. A whole tree
// (11 tasks) has to fit; past that a chain only serialises work another
// worker could have taken.
const chainCap = 16

// chainRun is a chain whose frame came back with the head's attempt
// succeeded: the followers whose reply has no error ran too and wait to be
// completed.
type chainRun struct {
	members []*taskState // members[0] is the head
	replies []exec.Reply
	headEnd time.Time // the head's End: the first follower's Start
	worker  string
}

func inChain(chain []*taskState, st *taskState) bool {
	for _, m := range chain {
		if m == st {
			return true
		}
	}
	return false
}

// collectChain returns head followed by the tasks only the chain holds back,
// in breadth-first — hence topological — order, each marked chained.
func collectChain(head *taskState) []*taskState {
	chain := []*taskState{head}
	for i := 0; i < len(chain); i++ {
		m := chain[i]
		// Submit only appends, so the elements below the length read here
		// never change; complete cannot run, m is ours.
		m.chMu.Lock()
		kids := m.children
		m.chMu.Unlock()
		for _, c := range kids {
			if len(chain) == chainCap {
				return chain
			}
			if chainable(c, chain) {
				c.chained.Store(true)
				chain = append(chain, c)
			}
		}
	}
	return chain
}

// chainable reports whether c — a child of a chain member — can join: a
// backend task whose every producer outside the chain has completed,
// successfully. While c is mid-submit its sentinel keeps pending above the
// in-chain count, and the same holds while an outside producer is still
// running, so the one comparison covers both; once it holds, every outside
// producer's result is there to read.
func chainable(c *taskState, chain []*taskState) bool {
	if c.execName == "" || inChain(chain, c) {
		return false
	}
	var inside int32
	eachFuture(c.args, func(f *Future) {
		if inChain(chain, f.st) {
			inside++
		}
	})
	if c.pending.Load() != inside {
		return false
	}
	ok := true
	eachFuture(c.args, func(f *Future) {
		if f.st.err != nil && !inChain(chain, f.st) {
			ok = false // c fails its dependency screen the ordinary way
		}
	})
	return ok
}

// ship runs chain — a task alone, or a chain's head and the followers it
// took along — as the head's attempt in one backend call; redo marks the
// lineage rerun of a task that completed before (held.go). A lost argument
// costs round trips, never an answer: nothing was sent, so the followers are
// handed back and the head goes alone; lost again, its arguments are brought
// home or rebuilt and it goes once more, which cannot be lost. Every follower
// that did not come back with values is handed back — its mark cleared,
// here, before the head or anything else completes.
func (rt *Runtime) ship(chain []*taskState, resolved []any, redo bool) attemptResult {
	st := chain[0]
	reqs := make([]*exec.Request, len(chain))
	reqs[0] = rt.request(st, resolved, nil, redo)
	for i, m := range chain[1:] {
		reqs[i+1] = rt.request(m, rt.resolveArgs(m.args, chain), chain, false)
	}
	sent := time.Now()
	replies, worker, err := rt.cfg.Backend.ExecuteChain(reqs)
	if errors.Is(err, exec.ErrLost) && len(chain) > 1 {
		for _, m := range chain[1:] {
			m.chained.Store(false)
		}
		chain, reqs = chain[:1], reqs[:1]
		replies, worker, err = rt.cfg.Backend.ExecuteChain(reqs)
	}
	if errors.Is(err, exec.ErrLost) {
		if err = rt.restore(st.args); err == nil {
			replies, worker, err = rt.cfg.Backend.ExecuteChain(reqs)
		}
	}
	headEnd := time.Now()
	if err == nil {
		err = replies[0].Err
	}
	for i, m := range chain[1:] {
		if err != nil || replies[i+1].Err != nil {
			m.chained.Store(false)
		} else {
			headEnd = headEnd.Add(-replies[i+1].Body)
		}
	}
	if err != nil {
		return attemptResult{err: &TaskError{ID: st.id, Name: st.name, Err: err}, mode: "error", frac: 1, worker: worker}
	}
	res := attemptResult{vals: replies[0].Vals, worker: worker}
	if len(chain) > 1 {
		if headEnd.Before(sent) {
			headEnd = sent // a worker clock that runs fast
		}
		res.chain = &chainRun{members: chain, replies: replies, headEnd: headEnd, worker: worker}
	}
	return res
}

// finishChain completes, in order, the followers that ran with a head that
// has just completed. Each one's producers completed before it — the chain's
// earlier members here, everything else before the chain was collected — so
// its pending count is zero and only the mark kept it from the ready queue.
func (rt *Runtime) finishChain(run *chainRun, w *worker) {
	at := run.headEnd
	for i, m := range run.members {
		if i == 0 || run.replies[i].Err != nil {
			continue // the head is done; a follower with an error was handed back
		}
		rt.emitAt(EventDepsReady, m, -1, at, nil, "", false, "")
		rt.emitAt(EventStart, m, 0, at, nil, "", false, "")
		at = at.Add(run.replies[i].Body)
		m.vals = run.replies[i].Vals
		rt.emitAt(EventEnd, m, 0, at, nil, "", false, run.worker)
		rt.complete(m, w)
	}
}
