package serve

import (
	"runtime"
	"testing"
	"time"

	"taskml/internal/compss"
	"taskml/internal/edge"
)

// TestServeLetsGoOfScoredWindows: a long-lived server's heap follows what is
// still live, not what it has served. Scoring 15 000 more windows on 8
// streams — 12 MB of samples, each batch passed to its scoring task as an
// argument, as core's "serve_score" takes them — leaves the heap after GC
// within 1 MB of where it was, and no scored window keeps its samples.
func TestServeLetsGoOfScoredWindows(t *testing.T) {
	const streams, fs = 8, 100 // 1 s windows: 100 samples, 800 B each
	rt := compss.New(compss.Config{Workers: 2})
	s, err := newServer(t, rt, Config{
		Window: edge.Config{Fs: fs, WindowSec: 1, StrideSec: 1},
		Score: func(tc *compss.TaskCtx, windows [][]float64, fs float64) *compss.Future {
			return tc.Submit(compss.Opts{Name: "score"}, func(_ *compss.TaskCtx, args []any) (any, error) {
				labels := make([]int, len(args[0].([][]float64)))
				for i, w := range args[0].([][]float64) {
					if w[0] < 0 {
						labels[i] = 1
					}
				}
				return labels, nil
			}, windows)
		},
		MaxBatch:     64,
		MaxDelay:     time.Hour,
		StreamBuffer: 1 << 20, // nothing is shed
	})
	if err != nil {
		t.Fatal(err)
	}
	sts := make([]*Stream, streams)
	for i := range sts {
		if sts[i], err = s.Admit(); err != nil {
			t.Fatal(err)
		}
	}
	samples := make([]float64, fs)
	scoreUpTo := func(windows int64) uint64 {
		for s.Metrics().Windows < windows {
			for _, st := range sts {
				if err := st.Push(samples...); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Flush()
		s.WaitIdle()
		s.mu.Lock()
		for _, st := range sts {
			for _, w := range st.queued {
				if w.data != nil {
					t.Errorf("stream %d: scored window %d keeps %d samples", st.id, w.seq, len(w.data))
				}
			}
		}
		s.mu.Unlock()
		return heapAfterGC()
	}

	at5k := scoreUpTo(5000)
	at20k := scoreUpTo(20000)
	runtime.KeepAlive(s)
	if m := s.Metrics(); m.Scored != m.Windows || m.Scored < 20000 {
		t.Fatalf("scored %d of %d windows, want all of at least 20000", m.Scored, m.Windows)
	}
	grown := int64(at20k) - int64(at5k)
	t.Logf("heap after GC: %.2f MB at 5000 windows, %.2f MB at 20000", float64(at5k)/(1<<20), float64(at20k)/(1<<20))
	if grown > 1<<20 {
		t.Fatalf("15000 more scored windows grew the heap by %.2f MB, want <= 1 MB", float64(grown)/(1<<20))
	}
}

// TestServeSoakLeavesNothingBehind: a scored batch leaves nothing behind in
// the runtime. A million single-window batches (20 000 under -short, 100 000
// under the race detector), each scored by a task that takes a recorded
// model future as the served model does, leave the heap after GC within 1 MB
// of where it stood at a tenth of the run, at every tenth after, and add no
// node to the runtime's graph.
func TestServeSoakLeavesNothingBehind(t *testing.T) {
	batches := 1_000_000
	switch {
	case testing.Short():
		batches = 20_000
	case raceDetector:
		batches = 100_000
	}
	const streams, fs = 8, 100
	rt := compss.New(compss.Config{Workers: 2})
	model := rt.Submit(compss.Opts{Name: "model"}, func(*compss.TaskCtx, []any) (any, error) { return 1, nil })
	if _, err := rt.Get(model); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(t, rt, Config{
		Window: edge.Config{Fs: fs, WindowSec: 1, StrideSec: 1},
		Score: func(tc *compss.TaskCtx, windows [][]float64, fs float64) *compss.Future {
			return tc.Submit(compss.Opts{Name: "score"}, func(_ *compss.TaskCtx, args []any) (any, error) {
				return make([]int, len(args[1].([][]float64))), nil
			}, model, windows)
		},
		MaxBatch:     1,
		StreamBuffer: 1 << 20, // nothing is shed
	})
	if err != nil {
		t.Fatal(err)
	}
	sts := make([]*Stream, streams)
	for i := range sts {
		if sts[i], err = s.Admit(); err != nil {
			t.Fatal(err)
		}
	}
	nodes := rt.Graph().Len()
	samples := make([]float64, fs)
	var base uint64
	for tenth := 1; tenth <= 10; tenth++ {
		for round := 0; s.Metrics().Windows < int64(batches*tenth/10); round++ {
			for _, st := range sts {
				if err := st.Push(samples...); err != nil {
					t.Fatal(err)
				}
			}
			if round%64 == 63 {
				s.WaitIdle() // the pushes outrun the scoring: keep the queue short
			}
		}
		s.WaitIdle()
		heap := heapAfterGC()
		if tenth == 1 {
			base = heap
			continue
		}
		if heap > base+1<<20 {
			t.Fatalf("after %d batches the heap is %.2f MB, %.2f MB past its %.2f MB at a tenth of the run",
				s.Metrics().Batches, float64(heap)/(1<<20), float64(heap-base)/(1<<20), float64(base)/(1<<20))
		}
	}
	m := s.Metrics()
	if m.Scored != m.Windows || m.Batches != m.Scored || m.Batches < int64(batches) {
		t.Fatalf("metrics = %+v, want at least %d windows, each scored in a batch of its own", m, batches)
	}
	if got := rt.Graph().Len(); got != nodes {
		t.Fatalf("the graph holds %d nodes after %d batches, %d before: serving recorded tasks", got, m.Batches, nodes)
	}
	t.Logf("%d batches: heap after GC %.2f MB at a tenth of the run, %.2f MB at the end",
		m.Batches, float64(base)/(1<<20), float64(heapAfterGC())/(1<<20))
}

// heapAfterGC is the live heap once the collector has run.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
