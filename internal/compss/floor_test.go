package compss

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"taskml/internal/graph"
)

// floorModel is the sync floor rule of one context, held as plain maps: a
// reference the runtime's range sets must agree with. A submission records
// its future arguments (each once, in argument order, ViaMaster when the
// context synchronised on it), then every floor id that is not an argument
// in ascending order (ViaMaster and OrderOnly), and snapshots the floor.
// Get(X) adds X to the floor and removes X's snapshot; WaitAll adds every
// task submitted in the context; Barrier adds 0..n-1, n the graph's length
// when it starts. A Get only ever targets a task of the same context here,
// so each context's model is complete on its own.
type floorModel struct {
	floor, synced map[int]bool
	snap          map[int][]int
	own           []int
}

func newFloorModel() *floorModel {
	return &floorModel{floor: map[int]bool{}, synced: map[int]bool{}, snap: map[int][]int{}}
}

// deps is what a submission with these argument ids records, and the floor
// it snapshots.
func (m *floorModel) deps(args []int) ([]graph.Dep, []int) {
	var deps []graph.Dep
	isArg := map[int]bool{}
	for _, id := range args {
		if !isArg[id] {
			isArg[id] = true
			deps = append(deps, graph.Dep{Task: id, ViaMaster: m.synced[id]})
		}
	}
	var snap []int
	for id := range m.floor {
		snap = append(snap, id)
	}
	slices.Sort(snap)
	for _, id := range snap {
		if !isArg[id] {
			deps = append(deps, graph.Dep{Task: id, ViaMaster: true, OrderOnly: true})
		}
	}
	return deps, snap
}

func (m *floorModel) get(id int) {
	m.floor[id], m.synced[id] = true, true
	for _, s := range m.snap[id] {
		delete(m.floor, s)
	}
}

// floorProgram is a random program drawn byte by byte: each byte picks an
// operation, the following ones its operands, and a task with a nested body
// takes a slice of the bytes as that body's own program. It runs on Main(),
// and want collects what the model says every recorded task's deps are.
type floorProgram struct {
	rt   *Runtime
	mu   sync.Mutex
	want map[int][]graph.Dep
	errs []error
}

type draws []byte

// next draws a number in 0..n-1; an exhausted program draws 0.
func (d *draws) next(n int) int {
	if len(*d) == 0 {
		return 0
	}
	v := int((*d)[0]) % n
	*d = (*d)[1:]
	return v
}

func (p *floorProgram) fail(err error) {
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.mu.Unlock()
}

// run executes the program d in context tc at nesting depth depth. Only the
// main context (depth 0) calls Barrier: first it waits, outside the floor
// rule, until no body can submit any more, so the graph's length — the
// barrier's range — is the model's too.
func (p *floorProgram) run(tc *TaskCtx, d draws, depth int) {
	m := newFloorModel()
	var futs []*Future
	pick := func() *Future { return futs[d.next(len(futs))] }
	for ops := 0; len(d) > 0 && ops < 40; ops++ {
		op := d.next(9)
		if op >= 3 && op <= 6 && len(futs) == 0 {
			op = 0
		}
		switch op {
		case 0, 1, 2, 7: // submit: up to three future arguments, one maybe twice
			var args []any
			var argIDs []int
			for range d.next(4) {
				if len(futs) == 0 {
					break
				}
				if d.next(3) == 0 { // a []*Future argument
					fs := []*Future{pick(), pick()}
					args = append(args, fs)
					argIDs = append(argIDs, fs[0].TaskID(), fs[1].TaskID())
				} else {
					f := pick()
					args = append(args, f)
					argIDs = append(argIDs, f.TaskID())
				}
			}
			body := constTask(depth)
			if op == 7 && depth < 2 {
				k := d.next(24)
				sub := slices.Clone(d[:min(len(d), k)])
				d = d[len(sub):]
				body = func(c *TaskCtx, _ []any) (any, error) {
					p.run(c, sub, depth+1)
					return depth, nil
				}
			}
			deps, snap := m.deps(argIDs)
			f := tc.Submit(Opts{Name: fmt.Sprintf("d%d", depth)}, body, args...)
			id := f.TaskID()
			m.snap[id] = snap
			m.own = append(m.own, id)
			p.mu.Lock()
			p.want[id] = deps
			p.mu.Unlock()
			futs = append(futs, f)
		case 3, 4: // Get
			f := pick()
			if _, err := tc.Get(f); err != nil {
				p.fail(err)
			}
			m.get(f.TaskID())
		case 5: // GetAll of one to three futures, one maybe twice
			fs := []*Future{pick()}
			for range d.next(3) {
				fs = append(fs, pick())
			}
			if _, err := tc.GetAll(fs); err != nil {
				p.fail(err)
			}
			for _, f := range fs {
				m.get(f.TaskID())
			}
		case 6: // WaitAll
			if err := tc.WaitAll(); err != nil {
				p.fail(err)
			}
			for _, id := range m.own {
				m.floor[id], m.synced[id] = true, true
			}
		case 8: // Barrier
			if depth > 0 {
				continue
			}
			if err := tc.waitSubmitted(false, nil); err != nil {
				p.fail(err)
			}
			n := p.rt.g.Len()
			if err := p.rt.Barrier(); err != nil {
				p.fail(err)
			}
			for id := range n {
				m.floor[id], m.synced[id] = true, true
			}
		}
	}
}

// checkFloorProgram runs prog on a fresh runtime and compares every recorded
// task's deps with the model's.
func checkFloorProgram(t *testing.T, prog []byte) {
	t.Helper()
	p := &floorProgram{rt: New(Config{Workers: 2}), want: map[int][]graph.Dep{}}
	p.run(p.rt.Main(), prog, 0)
	if err := p.rt.Barrier(); err != nil {
		p.fail(err)
	}
	if len(p.errs) > 0 {
		t.Fatalf("program %x: %v", prog, p.errs)
	}
	g := p.rt.Graph()
	if g.Len() != len(p.want) {
		t.Fatalf("program %x: %d tasks recorded, the model submitted %d", prog, g.Len(), len(p.want))
	}
	for _, task := range g.Tasks() {
		if want := p.want[task.ID]; !slices.Equal(task.Deps, want) {
			t.Fatalf("program %x: task %d (%s) records deps\n%+v\nthe floor model says\n%+v",
				prog, task.ID, task.Name, task.Deps, want)
		}
	}
}

// TestFloorMatchesModel drives random programs — submits with future and
// []*Future arguments, nested bodies that submit and Get, Get, GetAll,
// WaitAll and Barrier — and checks every recorded dep against floorModel.
func TestFloorMatchesModel(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	r := rand.New(rand.NewSource(1))
	for range n {
		prog := make([]byte, 16+r.Intn(112))
		r.Read(prog)
		checkFloorProgram(t, prog)
	}
}

func FuzzFloorMatchesModel(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 0, 8, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 5, 1, 1, 0, 6, 0, 3, 2})
	f.Add([]byte{7, 0, 20, 0, 0, 0, 1, 3, 0, 5, 0, 6, 0, 0, 3, 0, 0, 8, 0, 0, 2, 3, 1, 1, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 8, 7, 1, 1, 12, 0, 0, 7, 0, 6, 0, 0, 3, 0, 4, 1, 6, 0, 1, 2, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		checkFloorProgram(t, prog)
	})
}
