package exec

// Held results against real worker processes: a stored request that allows it
// is answered without its outputs, consumers take the marker as a reference,
// a pull brings the value home — once, however many ask, one frame a holder,
// beside the slots — and a pull for what the worker does not have is a Miss
// that moves no bytes.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// holdReq is chainReq with the outputs allowed to stay on the worker.
func holdReq(sess uint64, task int, name string, args ...any) *Request {
	req := chainReq(sess, task, name, args...)
	req.Hold = true
	return req
}

// heldOf runs req and returns the marker it must be answered with.
func heldOf(t *testing.T, r *Remote, req *Request) *Held {
	t.Helper()
	vals, _, err := r.ExecuteTask(req)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := vals[0].(*Held)
	if !ok {
		t.Fatalf("%s came home as %T, want it held", req.Name, vals[0])
	}
	return h
}

func TestHeldReplyAndPull(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const n = 100_000 // 800 KB
	sess := NextSession()
	before := r.Stats()
	h := heldOf(t, r, holdReq(sess, 1, "test_floats_n", n))
	if h.Ref != outOf(sess, 1) || h.Bytes != 8*n+8 {
		t.Fatalf("marker = %+v", h)
	}
	st := r.Stats()
	if st.Held != 1 || st.BytesRecv-before.BytesRecv > 256 {
		t.Fatalf("Stats = %+v: the reply carried %d bytes for a held output", st, st.BytesRecv-before.BytesRecv)
	}

	// A consumer takes the marker where the value would be: a bare reference
	// on the wire, nothing pulled.
	vals, _, err := r.ExecuteTask(&Request{
		Name: "test_identity", NOut: 1, Args: []any{h}, Session: sess, TaskID: 2,
		ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: h.Ref}},
	})
	if err != nil || len(vals[0].([]float64)) != n {
		t.Fatalf("consumer of a held value: %v, %v", vals, err)
	}
	if st := r.Stats(); st.Pulls != 0 || st.RefHits != 1 {
		t.Fatalf("Stats = %+v, want the marker resolved on the worker and no pull", st)
	}

	// Eight readers at once: one transfer.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.Pull([]*Held{h}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if v, ok := h.Value(); !ok || len(v.([]float64)) != n {
		t.Fatalf("after Pull the marker has %v, %v", v, ok)
	}
	if st := r.Stats(); st.Pulls != 1 || st.PullBytes != 8*n+8 {
		t.Fatalf("Stats = %+v, want one pull of %d bytes", st, 8*n+8)
	}
	if err := r.Pull([]*Held{h}); err != nil || r.Stats().Pulls != 1 {
		t.Fatalf("a second Pull went to the wire: %v, %+v", err, r.Stats())
	}

	// Ten held outputs on one holder come home in one frame; a request of no
	// identity is never held.
	var batch []*Held
	for i := 0; i < 10; i++ {
		batch = append(batch, heldOf(t, r, holdReq(sess, 10+i, "test_floats_n", 100+i)))
	}
	if err := r.Pull(batch); err != nil {
		t.Fatal(err)
	}
	for i, h := range batch {
		if v, ok := h.Value(); !ok || len(v.([]float64)) != 100+i {
			t.Fatalf("batch member %d: %v, %v", i, v, ok)
		}
	}
	if st := r.Stats(); st.Pulls != 2 || st.Held != 11 {
		t.Fatalf("Stats = %+v, want the ten pulled in one frame", st)
	}
	anon := holdReq(sess, -1, "test_floats_n", 4)
	if vals, _, err := r.ExecuteTask(anon); err != nil || len(vals[0].([]float64)) != 4 {
		t.Fatalf("anonymous request: %v, %v", vals, err)
	}
	if st := r.Stats(); st.Dispatched != st.Completed+st.Failed || st.Failed != 0 {
		t.Fatalf("Stats = %+v, want a partition with pulls in the run", st)
	}
}

// TestPullMissAndSlotFree: a pull for a ref the worker never had, or has
// under another session, is a Miss that moves no bytes and ends in ErrLost;
// a pull that arrives while the member's only slot runs a body is answered
// before the body ends.
func TestPullMissAndSlotFree(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sess, other := NextSession(), NextSession()
	h := heldOf(t, r, holdReq(sess, 1, "test_floats_n", 50_000))
	w := r.workers[0]
	for name, ref := range map[string]ValueRef{
		"unknown ref":     {Session: sess, Task: 99},
		"another session": {Session: other, Task: 1},
	} {
		// The residency map is made to claim it, or nothing would be sent.
		r.mu.Lock()
		w.resident[ref] = 8
		r.mu.Unlock()
		before := r.Stats()
		ghost := &Held{Ref: ref, Bytes: 8}
		if err := r.Pull([]*Held{ghost}); !errors.Is(err, ErrLost) {
			t.Fatalf("%s: Pull = %v, want ErrLost", name, err)
		}
		if _, ok := ghost.Value(); ok {
			t.Fatalf("%s: a value came home", name)
		}
		st := r.Stats()
		if st.Pulls != before.Pulls+1 || st.BytesRecv-before.BytesRecv > 64 || st.PullBytes != before.PullBytes {
			t.Fatalf("%s: Stats %+v after %+v: want one pull frame answered by a Miss of a few bytes", name, st, before)
		}
		r.mu.Lock()
		_, still := w.resident[ref]
		r.mu.Unlock()
		if still {
			t.Fatalf("%s: the Miss left the residency entry in place", name)
		}
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := r.Execute("test_sleep_ms", 1, []any{1500})
		done <- err
	}()
	for r.Workers()[0].Inflight == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // the body is on the slot
	start := time.Now()
	if err := r.Pull([]*Held{h}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 700*time.Millisecond {
		t.Fatalf("the pull took %v: it queued behind the body on the slot", el)
	}
	select {
	case err := <-done:
		t.Fatalf("the body ended before the pull returned (%v): the test proved nothing", err)
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestHeldNotWithoutCache: a member that does not cache says so in its hello;
// it answers a request that allows holding with the values, as ever.
func TestHeldNotWithoutCache(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1, CacheMB: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.workers[0].caches {
		t.Fatal("a worker with its cache disabled announced one")
	}
	vals, _, err := r.ExecuteTask(holdReq(NextSession(), 1, "test_floats_n", 16))
	if err != nil || len(vals[0].([]float64)) != 16 {
		t.Fatalf("%v, %v: want the value inline", vals, err)
	}
	if st := r.Stats(); st.Held != 0 {
		t.Fatalf("Stats = %+v: nothing can be held without a cache", st)
	}
}

// TestHostilePull: a pull frame's count is checked against the bytes the
// frame has left before anything is made from it, and the frame against the
// link's bound; a worker that answers a pull with the wrong number of values
// is retired, the value counts as lost, and the stats stay a partition.
func TestHostilePull(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	for name, b := range map[string][]byte{
		"count past the frame": rawFrame(kindPull, append([]byte{1}, huge...)...),
		"truncated ref":        rawFrame(kindPull, 1, 2, 3, 7, 0, 3),
		"trailing bytes":       rawFrame(kindPull, 1, 1, 3, 7, 0, 9),
		"past the frame bound": {0xff, 0xff, 0xff, 0x7f, kindPull},
	} {
		t.Run(name, func(t *testing.T) {
			l := &link{maxFrame: 1 << 20}
			l.dec.r = bufio.NewReader(bytes.NewReader(b))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := l.recvAny(&request{}, &pull{})
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("decoded")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
				t.Fatalf("allocated %d bytes decoding a %d-byte frame", got, len(b))
			}
		})
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sess := NextSession()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		lk := newLink(conn)
		_, _ = lk.send(&hello{Proto: protoVersion, Pid: 1, Slots: 1, Caches: true})
		var req request
		var p pull
		if _, err := lk.recv(&req); err != nil {
			return
		}
		_, _ = lk.send(&response{ID: req.ID, Stored: []StoredRef{{Ref: outOf(sess, 1), Bytes: 64}}})
		if _, err := lk.recv(&p); err != nil {
			return
		}
		_, _ = lk.send(&response{ID: p.ID, Vals: []any{1.0, 2.0}})
		_, _ = io.Copy(io.Discard, conn)
	}()
	r, err := Dial(RemoteConfig{Peers: []string{l.Addr().String()}, DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := heldOf(t, r, holdReq(sess, 1, "anything"))
	if err := r.Pull([]*Held{h}); !errors.Is(err, ErrLost) {
		t.Fatalf("Pull = %v, want ErrLost once the only holder is retired", err)
	}
	if n := r.AliveWorkers(); n != 0 {
		t.Fatalf("AliveWorkers = %d, want the member retired", n)
	}
	if st := r.Stats(); st.Dispatched != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("Stats = %+v, want the one request completed and the pull outside the partition", st)
	}
}
