package exec

import (
	crand "crypto/rand"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// TestJoinTokenFailsClosed: a fleet listener opens only behind a token minted
// from the system's randomness. When none can be had — a failing reader, a
// short one — ListenForWorkers says why and opens nothing; there is no
// fallback credential to guess. Once open, a dial-in presenting no token is
// not admitted.
func TestJoinTokenFailsClosed(t *testing.T) {
	defer func(r io.Reader) { randReader = r }(randReader)
	r := newRemote(0)
	defer r.Close()
	for name, rd := range map[string]io.Reader{
		"failing": iotest.ErrReader(errors.New("no entropy")),
		"short":   strings.NewReader("12345"),
	} {
		randReader = rd
		if addr, err := r.ListenForWorkers("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "join token") {
			t.Fatalf("%s reader: ListenForWorkers = %q, %v; want the minting error", name, addr, err)
		}
		r.mu.Lock()
		l := r.listener
		r.mu.Unlock()
		if l != nil || r.JoinToken() != "" {
			t.Fatalf("%s reader: listener %v, token %q: want nothing open", name, l, r.JoinToken())
		}
	}

	randReader = crand.Reader
	addr, err := r.ListenForWorkers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if tok := r.JoinToken(); len(tok) != 24 {
		t.Fatalf("token %q, want 24 hex digits", tok)
	}
	done := make(chan error, 1)
	go func() { done <- JoinCoordinator(addr, "", WorkerConfig{}) }()
	select {
	case <-done: // rejected: the coordinator closed the connection
	case <-time.After(5 * time.Second):
		t.Fatal("a join without a token was neither admitted nor rejected")
	}
	if n := r.AliveWorkers(); n != 0 {
		t.Fatalf("%d members after a join without a token, want 0", n)
	}
}
