package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"taskml/internal/compss"
	"taskml/internal/dsarray"
	"taskml/internal/exec"
	"taskml/internal/mat"
	"taskml/internal/preproc"
)

// purityGuard is a Backend that runs every registered body in-process and
// hashes each argument before and after it: a body that wrote to any
// argument is recorded. Workers hand bodies the values resident in their
// cache, shared with every later consumer, retry and pull, so such a write
// would corrupt someone else's input — silently, and only on some
// placements. The guard catches it on every run of the DAG.
type purityGuard struct {
	mu         sync.Mutex
	bodies     map[string]int
	violations []string
}

// ExecuteChain runs the head alone; the followers go back to the runtime and
// come again as heads of their own.
func (g *purityGuard) ExecuteChain(reqs []*exec.Request) ([]exec.Reply, string, error) {
	replies := make([]exec.Reply, len(reqs))
	for i := range replies[1:] {
		replies[i+1].Err = errors.New("purityGuard runs no chains")
	}
	replies[0].Vals, replies[0].Err = g.execute(reqs[0])
	return replies, "", nil
}

func (g *purityGuard) execute(req *exec.Request) ([]any, error) {
	before := make([]uint64, len(req.Args))
	for i, a := range req.Args {
		before[i] = hashValue(a)
	}
	vals, err := exec.Invoke(req.Name, req.NOut, req.Args)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.bodies == nil {
		g.bodies = map[string]int{}
	}
	g.bodies[req.Name]++
	for i, a := range req.Args {
		if hashValue(a) != before[i] {
			g.violations = append(g.violations, fmt.Sprintf("%s wrote to argument %d (%T)", req.Name, i, a))
		}
	}
	return vals, err
}

func (g *purityGuard) Pull([]*exec.Held) error { return nil } // it holds nothing
func (g *purityGuard) Forget(uint64)           {}
func (g *purityGuard) SlotTotal() int          { return 0 }
func (g *purityGuard) Close() error            { return nil }

// hashValue folds every bit reachable from v — floats by their bits, so a
// flipped sign of zero or a changed NaN payload counts as a write.
func hashValue(v any) uint64 {
	h := fnv.New64a()
	var walk func(v reflect.Value)
	word := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Invalid:
			word(0)
		case reflect.Float32, reflect.Float64:
			word(math.Float64bits(v.Float()))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			word(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			word(v.Uint())
		case reflect.Bool:
			if v.Bool() {
				word(1)
			} else {
				word(2)
			}
		case reflect.String:
			word(uint64(v.Len()))
			h.Write([]byte(v.String()))
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				word(3)
				return
			}
			walk(v.Elem())
		case reflect.Slice, reflect.Array:
			word(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		default:
			panic(fmt.Sprintf("hashValue: unhandled kind %s", v.Kind()))
		}
	}
	walk(reflect.ValueOf(&v).Elem())
	return h.Sum64()
}

func init() {
	// The guard's own positive control: a body that writes its argument.
	exec.Register("test_undeclared_add_to", func(args []any) (any, error) {
		dst := args[0].(*mat.Dense)
		mat.AddInPlace(dst, args[1].(*mat.Dense))
		return dst, nil
	})
}

// TestRegisteredBodiesLeaveArgumentsAlone runs the DAGs of the parity tests
// — the random-forest cross-validation of TestRemoteParityBitIdentical, the
// served scoring of TestServeRemoteParityBitIdentical, the Gram reduction —
// and a StandardScaler fit and transform under the guard, which together
// reach every registered body: none may write to any of its arguments. A
// body that writes its argument must trip it.
func TestRegisteredBodiesLeaveArgumentsAlone(t *testing.T) {
	guard := &purityGuard{}

	ds, err := BuildDataset(smallData(21))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(21)
	cfg.Runtime.Backend = guard
	if _, err := RunCV(ModelRF, ds, cfg); err != nil {
		t.Fatal(err)
	}

	runServed(t, trainServeModel(t), guard, serveTestSignals())

	rt := compss.New(compss.Config{Workers: 2, Backend: guard})
	x := mat.New(96, 40)
	for i := range x.Data {
		x.Data[i] = 0.01 * float64(i%97)
	}
	xa := dsarray.FromMatrix(rt.Main(), x, 24, 10)
	if _, err := rt.Get(xa.Gram()); err != nil {
		t.Fatal(err)
	}
	var sc preproc.StandardScaler
	scaled, err := sc.FitTransform(xa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scaled.Collect(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}

	for _, name := range exec.Names() {
		if !strings.HasPrefix(name, "test_") && guard.bodies[name] == 0 {
			t.Errorf("the guarded DAGs never ran %s", name)
		}
	}
	if len(guard.violations) > 0 {
		t.Fatalf("registered bodies wrote to their arguments:\n  %s", strings.Join(guard.violations, "\n  "))
	}

	a, b := mat.New(2, 2), mat.New(2, 2)
	b.Data[0] = 1
	if _, err := guard.execute(&exec.Request{Name: "test_undeclared_add_to", NOut: 1, Args: []any{a, b}}); err != nil {
		t.Fatal(err)
	}
	if len(guard.violations) != 1 || !strings.Contains(guard.violations[0], "test_undeclared_add_to wrote to argument 0") {
		t.Fatalf("the guard missed a body that writes its argument: %v", guard.violations)
	}
}
