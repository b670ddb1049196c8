package compss

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitWhileProducersComplete submits dependency shapes with nothing
// holding the producers back, so producers complete while their dependants
// are still being wired to them. A dependant must become ready exactly once,
// after its last producer: run early it sees a nil input, run twice it
// breaks the count.
func TestSubmitWhileProducersComplete(t *testing.T) {
	const (
		leaves = 4096
		chain  = 10000
	)
	var runs atomic.Int64
	one := func(_ *TaskCtx, _ []any) (any, error) { runs.Add(1); return 1, nil }
	inc := func(_ *TaskCtx, a []any) (any, error) { runs.Add(1); return a[0].(int) + 1, nil }
	add := func(_ *TaskCtx, a []any) (any, error) { runs.Add(1); return a[0].(int) + a[1].(int), nil }

	tree := func(rt *Runtime) *Future {
		level := make([]*Future, leaves)
		for i := range level {
			level[i] = rt.Submit(Opts{Name: "leaf"}, one)
		}
		for len(level) > 1 {
			next := make([]*Future, len(level)/2)
			for i := range next {
				next[i] = rt.Submit(Opts{Name: "merge"}, add, level[2*i], level[2*i+1])
			}
			level = next
		}
		return level[0]
	}
	link := func(rt *Runtime) *Future {
		f := rt.Submit(Opts{Name: "head"}, one)
		for i := 1; i < chain; i++ {
			f = rt.Submit(Opts{Name: "link"}, inc, f)
		}
		return f
	}

	budget := 3 * time.Second
	if testing.Short() {
		budget = 300 * time.Millisecond
	}
	start := time.Now()
	for round := 0; time.Since(start) < budget; round++ {
		for _, shape := range []struct {
			name   string
			build  func(*Runtime) *Future
			want   int
			nTasks int
		}{
			{"tree", tree, leaves, 2*leaves - 1},
			{"chain", link, chain, chain},
		} {
			runs.Store(0)
			rt := New(Config{Workers: 4})
			got, err := rt.Get(shape.build(rt))
			if err != nil {
				t.Fatalf("round %d %s: %v", round, shape.name, err)
			}
			if got.(int) != shape.want {
				t.Fatalf("round %d %s: result %v, want %d", round, shape.name, got, shape.want)
			}
			if err := rt.Barrier(); err != nil {
				t.Fatalf("round %d %s: barrier: %v", round, shape.name, err)
			}
			if n := runs.Load(); n != int64(shape.nTasks) {
				t.Fatalf("round %d %s: %d bodies ran, want %d", round, shape.name, n, shape.nTasks)
			}
		}
	}
}
