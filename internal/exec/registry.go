package exec

import (
	"fmt"
	"sort"
	"sync"
)

// Func is a registered single-output task body. It receives its resolved
// arguments (the same []any a compss.TaskFunc would see) and returns the
// task's output value.
//
// Registered bodies must be *argument-pure*: all state arrives through args
// (no captured closures — a closure cannot be shipped to another process),
// and arguments are read-only. In-process (a nil compss.Config.Backend)
// they are the caller's in-memory values; on a worker they are decoded
// copies or the values resident in its future cache, shared with every
// other consumer, with retries and with pulls — so a body that writes to an
// argument corrupts someone else's input on either backend. There is no
// exception. Results are freshly allocated or share structure with an
// argument (rf_join's node points at its child subtrees), which is safe
// because no one writes to either; the body does not touch them after
// returning — on a worker they become resident as they are.
type Func func(args []any) (any, error)

// FuncN is a registered multi-output task body (the exec counterpart of
// compss.MultiTaskFunc).
type FuncN func(args []any) ([]any, error)

// entry is one registered body; exactly one of fn1/fnN is non-nil.
type entry struct {
	fn1 Func
	fnN FuncN
}

var (
	regMu sync.RWMutex
	reg   = map[string]entry{}
)

// Register binds name to a single-output body. Names are global to the
// process and must be unique; Register panics on a duplicate, so collisions
// surface at init time rather than as wrong results on a worker. By
// convention names are lower_snake, prefixed by their domain when the
// operation is not generic (e.g. "rf_bootstrap", but "mat_add" for the
// shared matrix merge).
//
// Call Register from package init so every binary that links the package —
// coordinator, cmd/worker, test binaries re-exec'd as loopback workers —
// agrees on the name table before any task is dispatched.
func Register(name string, fn Func) {
	register(name, entry{fn1: fn})
}

// RegisterN binds name to a multi-output body; see Register.
func RegisterN(name string, fn FuncN) {
	register(name, entry{fnN: fn})
}

func register(name string, e entry) {
	if name == "" || (e.fn1 == nil && e.fnN == nil) {
		panic("exec: Register needs a name and a function")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[name]; dup {
		panic(fmt.Sprintf("exec: duplicate registration of %q", name))
	}
	reg[name] = e
}

// Has reports whether name is registered. compss checks it at submission
// time so a typo fails fast at the submit site, not as a runtime error on a
// worker.
func Has(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := reg[name]
	return ok
}

// Names returns the registered names, sorted (diagnostics, worker startup
// logs).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(reg))
	for n := range reg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Invoke runs the named body in-process and normalises the result to a
// slice of nOut values. It is the execution path of both a runtime with no
// Backend and the worker loop.
func Invoke(name string, nOut int, args []any) ([]any, error) {
	regMu.RLock()
	e, ok := reg[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("exec: function %q is not registered", name)
	}
	if e.fn1 != nil {
		if nOut != 1 {
			return nil, fmt.Errorf("exec: %q has 1 output, %d requested", name, nOut)
		}
		v, err := e.fn1(args)
		if err != nil {
			return nil, err
		}
		return []any{v}, nil
	}
	vals, err := e.fnN(args)
	if err != nil {
		return nil, err
	}
	if len(vals) != nOut {
		return nil, fmt.Errorf("exec: %q returned %d values, %d requested", name, len(vals), nOut)
	}
	return vals, nil
}
