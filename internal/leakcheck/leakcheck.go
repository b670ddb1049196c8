package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// settle is how long Main waits for the goroutines the tests started to
// exit: runtime carriers park out within a millisecond, a closed server's
// scorer loops at once, so seconds leave room for a loaded machine.
const settle = 5 * time.Second

// module prefixes every function of this module in a goroutine stack.
const module = "taskml/"

// Main runs m's tests and returns the exit code for os.Exit: m.Run's, or 1
// when the tests passed but left goroutines behind. m is a *testing.M, or a
// wrapper whose Run also tears down what the package's tests share.
func Main(m interface{ Run() int }) int {
	before := map[string]bool{}
	for _, g := range goroutines() {
		before[g.id] = true
	}
	code := m.Run()
	if code != 0 {
		return code
	}
	deadline := time.Now().Add(settle)
	for {
		var left []string
		for _, g := range goroutines() {
			if !before[g.id] && strings.Contains(g.stack, module) {
				left = append(left, g.stack)
			}
		}
		if len(left) == 0 {
			return code
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests by %v:\n\n%s\n",
				len(left), settle, strings.Join(left, "\n\n"))
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutine is one goroutine's entry in a full stack dump.
type goroutine struct{ id, stack string }

// goroutines dumps every goroutine's stack and splits the dump per
// goroutine: each entry starts "goroutine <id> [<state>]:".
func goroutines() []goroutine {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var gs []goroutine
	for _, stack := range strings.Split(string(buf), "\n\n") {
		head, _, _ := strings.Cut(stack, " [")
		if id, ok := strings.CutPrefix(head, "goroutine "); ok {
			gs = append(gs, goroutine{id: id, stack: stack})
		}
	}
	return gs
}
