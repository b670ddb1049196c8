package compss

import (
	"testing"
	"unsafe"
)

// TestTaskChunkKeepsItsSizeClass: an arena chunk is one allocation of
// taskChunk taskStates plus the allocator's 8-byte header, and 14336 bytes is
// a size class; one more word in taskState moves every chunk to the 16384
// class — 64 bytes a task on the submit path (BenchmarkSubmitNoObserver B/op).
// A new field goes into padding, or pays for itself.
func TestTaskChunkKeepsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof([taskChunk]taskState{}) + 8; got > 14336 {
		t.Fatalf("a chunk of %d taskStates of %d bytes is %d bytes with its header, past the 14336 size class",
			taskChunk, unsafe.Sizeof(taskState{}), got)
	}
}

// TestDequeGrowsPastFirstSize parks far more ready tasks on one worker's
// deque than a ring starts with and takes them all back through findWork,
// both as another worker (a thief) and as a helper that owns no deque. Every
// task must come back exactly once, in steal (FIFO) order, and anyWork must
// see the deque until the last one is gone.
func TestDequeGrowsPastFirstSize(t *testing.T) {
	const n = 600
	for _, thief := range []string{"worker", "helper"} {
		ex := New(Config{Workers: 2}).ex
		tasks := make([]taskState, n)
		for i := range tasks {
			tasks[i].id = i
			ex.workers[0].push(&tasks[i])
		}
		var w *worker
		if thief == "worker" {
			w = ex.workers[1]
		}
		rng := ex.nextSeed()
		for i := 0; i < n; i++ {
			if !ex.anyWork() {
				t.Fatalf("%s: anyWork false with %d tasks queued", thief, n-i)
			}
			st, stolen := ex.findWork(w, &rng)
			if st == nil {
				t.Fatalf("%s: take %d: no task, %d still queued", thief, i, n-i)
			}
			if !stolen || st.id != i {
				t.Fatalf("%s: take %d: got task %d (stolen %v), want task %d stolen", thief, i, st.id, stolen, i)
			}
		}
		if st, _ := ex.findWork(w, &rng); st != nil || ex.anyWork() {
			t.Fatalf("%s: deque not empty after %d takes", thief, n)
		}
	}
}
