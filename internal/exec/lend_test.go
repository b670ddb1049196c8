package exec

// A worker lends its request slots to the kernels of its process while it
// serves a coordinator, and caps nothing else: a one-slot worker's kernel
// body runs serially, a roomier one's borrows the idle slots, and an
// in-process member leaves its host's kernels their helpers.

import (
	"sync/atomic"
	"testing"
	"time"

	"taskml/internal/par"
)

func init() {
	// test_region_width runs a four-chunk parallel region and returns how
	// many chunks ran at once: each chunk waits up to 200 ms for the others.
	Register("test_region_width", func(args []any) (any, error) {
		return float64(regionWidth(4, 200*time.Millisecond)), nil
	})
}

// regionWidth runs par.For over parts single-index chunks, each waiting up
// to patience for all parts to be in flight, and returns the peak.
func regionWidth(parts int, patience time.Duration) int {
	var in, peak atomic.Int32
	par.For(parts, 1, func(lo, hi int) {
		c := in.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		for deadline := time.Now().Add(patience); peak.Load() < int32(parts) && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		in.Add(-1)
	})
	return int(peak.Load())
}

// A worker process's kernel body borrows only its own connection's idle
// slots: none on a one-slot worker, two on a three-slot one.
func TestWorkerSlotsBoundKernelHelpers(t *testing.T) {
	for _, c := range []struct{ slots, width int }{{1, 1}, {3, 3}} {
		r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: c.slots})
		if err != nil {
			t.Fatal(err)
		}
		vals, _, err := r.Execute("test_region_width", 1, nil)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := int(vals[0].(float64)); got != c.width {
			t.Fatalf("a kernel region on a %d-slot worker ran %d goroutines, want %d", c.slots, got, c.width)
		}
	}
}

// An in-process member serving a coordinator does not cap the kernels of
// its host process: the host's region borrows the member's idle slot. A
// dial-in member (JoinCoordinator) serves through the same loop.
func TestInProcessWorkerLeavesHostKernelsParallel(t *testing.T) {
	r, err := Dial(RemoteConfig{Peers: []string{serveHere(t)}, DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := regionWidth(2, 5*time.Second); got != 2 {
		t.Fatalf("the host's region ran %d goroutines beside an idle in-process member, want 2", got)
	}
}
