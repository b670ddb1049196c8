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
// and arguments are read-only. On the Local backend they are the caller's
// in-memory values; on a worker they are decoded copies or the values
// resident in its future cache, shared with every other consumer, with
// retries and with peer fetches — so a body that writes to an argument
// corrupts someone else's input on either backend. The one exception is
// declared: a body registered with RegisterInPlace names the arguments it
// overwrites (the caller must own them exclusively on the Local backend;
// the worker hands it a private copy of a resident one). Results are
// freshly allocated, or share structure with an argument only where no
// in-place consumer can ever receive them (rf_join's node points at its
// child subtrees); the body does not touch them after returning — on a
// worker they become resident as they are.
type Func func(args []any) (any, error)

// FuncN is a registered multi-output task body (the exec counterpart of
// compss.MultiTaskFunc).
type FuncN func(args []any) ([]any, error)

// entry is one registered body; exactly one of fn1/fnN is non-nil. inPlace
// lists the argument indices the body declared it writes to.
type entry struct {
	fn1     Func
	fnN     FuncN
	inPlace []int
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

// RegisterInPlace is Register for a body that writes to its arguments: args
// lists the indices it overwrites (dsarray's "mat_add_to" accumulates into
// args[0]). Every other argument of every body is read-only.
func RegisterInPlace(name string, fn Func, args ...int) {
	register(name, entry{fn1: fn, inPlace: args})
}

// InPlaceArgs returns the argument indices name's body declared it writes
// to; nil for a body registered with Register or RegisterN.
func InPlaceArgs(name string) []int {
	regMu.RLock()
	defer regMu.RUnlock()
	return reg[name].inPlace
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

// Fns returns the registered bodies for name (one of the two is non-nil
// when ok). compss's Local fast path calls the fn1 form directly so a
// single-output in-process exec task costs no more than a plain TaskFunc.
func Fns(name string) (Func, FuncN, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := reg[name]
	return e.fn1, e.fnN, ok
}

// Invoke runs the named body in-process and normalises the result to a
// slice of nOut values. It is the execution path of both the Local backend
// and the worker loop.
func Invoke(name string, nOut int, args []any) ([]any, error) {
	fn1, fnN, ok := Fns(name)
	if !ok {
		return nil, fmt.Errorf("exec: function %q is not registered", name)
	}
	if fn1 != nil {
		if nOut != 1 {
			return nil, fmt.Errorf("exec: %q has 1 output, %d requested", name, nOut)
		}
		v, err := fn1(args)
		if err != nil {
			return nil, err
		}
		return []any{v}, nil
	}
	vals, err := fnN(args)
	if err != nil {
		return nil, err
	}
	if len(vals) != nOut {
		return nil, fmt.Errorf("exec: %q returned %d values, %d requested", name, len(vals), nOut)
	}
	return vals, nil
}
