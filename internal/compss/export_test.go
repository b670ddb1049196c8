package compss

import (
	"fmt"
	"testing"
)

// quiescent waits for rt's carriers to exit (untilIdle) and then fails t
// unless the executor is at rest (atRest).
func quiescent(t *testing.T, rt *Runtime) {
	t.Helper()
	untilIdle(t, rt)
	if err := rt.ex.atRest(); err != nil {
		t.Fatal(err)
	}
}

// atRest reports an error unless no parker is on the idler list, no wake
// token is left in any worker's parker, and every slot is back. A token left
// behind would wake that worker's next carrier for nothing, and a slot lost
// would narrow the runtime for good; the parking protocol promises neither
// happens, so a parker needs no drain before it parks again.
func (ex *executor) atRest() error {
	ex.idleMu.Lock()
	idlers := len(ex.idlers)
	ex.idleMu.Unlock()
	if idlers != 0 || ex.idleCount.Load() != 0 {
		return fmt.Errorf("%d parkers (count %d) still on the idler list of an idle runtime", idlers, ex.idleCount.Load())
	}
	for _, w := range ex.workers {
		if n := len(w.park.ch); n != 0 {
			return fmt.Errorf("worker %d's parker holds %d wake tokens on an idle runtime", w.idx, n)
		}
	}
	ex.slotMu.Lock()
	held := ex.held
	ex.slotMu.Unlock()
	if held != 0 {
		return fmt.Errorf("%d slots held on an idle runtime", held)
	}
	return nil
}
