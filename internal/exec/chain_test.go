package exec

// Chains against real worker processes: one frame, one slot, every member's
// reply; a member whose input is gone misses alone; a worker killed under a
// chain fails the frame and every request in it.

import (
	"sync"
	"testing"
	"time"
)

func init() {
	// test_floats_n(n): a fresh []float64 of n elements, 8n+8 accounted bytes.
	Register("test_floats_n", func(args []any) (any, error) {
		return make([]float64, args[0].(int)), nil
	})
}

// chainReq is a request of session sess whose arguments produced by earlier
// members are already bare references.
func chainReq(sess uint64, task int, name string, args ...any) *Request {
	return &Request{Name: name, NOut: 1, Args: args, Session: sess, TaskID: task}
}

func outOf(sess uint64, task int) ValueRef { return ValueRef{Session: sess, Task: task} }

// TestChainOneFrame: a chain is one frame on one slot; every request in it
// counts Dispatched and Completed, reports its own body time and gets its own
// cache sample; ExecuteTask is the chain of one.
func TestChainOneFrame(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var mu sync.Mutex
	var samples []CacheSample
	r.SetCacheHook(func(s CacheSample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	})

	sess := NextSession()
	replies, worker, err := r.ExecuteChain([]*Request{
		chainReq(sess, 1, "test_make_floats"),
		chainReq(sess, 2, "test_identity", outOf(sess, 1)),
		chainReq(sess, 3, "test_sleep_ms", 20),
		chainReq(sess, 4, "test_sum_list", []any{1.0, 2.0}),
		chainReq(sess, 5, "test_identity", []any{outOf(sess, 2), outOf(sess, 4)}),
	})
	if err != nil || worker != "w0" {
		t.Fatalf("ExecuteChain: worker %q, err %v", worker, err)
	}
	for i, rep := range replies {
		if rep.Err != nil || len(rep.Vals) != 1 {
			t.Fatalf("member %d: %+v", i, rep)
		}
	}
	if got := replies[1].Vals[0].([]float64); len(got) != 3 || got[2] != 3 {
		t.Fatalf("member 1 = %v, want the head's output", got)
	}
	if got := replies[4].Vals[0].([]any); len(got) != 2 || got[1] != 3.0 || len(got[0].([]float64)) != 3 {
		t.Fatalf("member 4 = %v, want [head's output, 3]", got)
	}
	if b := replies[2].Body; b < 20*time.Millisecond || b > 2*time.Second {
		t.Fatalf("the sleeping member reports a body time of %v", b)
	}
	if b := replies[0].Body; b <= 0 || b >= replies[2].Body {
		t.Fatalf("the head reports a body time of %v: want its own, not the chain's", b)
	}
	st := r.Stats()
	if st.Frames != 1 || st.Dispatched != 5 || st.Completed != 5 || st.Failed != 0 {
		t.Fatalf("Stats = %+v, want 5 requests in 1 frame, all completed", st)
	}
	if st.RefHits != 3 || st.RefMisses != 0 {
		t.Fatalf("Stats = %+v, want the three in-chain references resolved on the worker", st)
	}
	mu.Lock()
	if len(samples) != 5 {
		t.Fatalf("%d cache samples, want one per request", len(samples))
	}
	for i, s := range samples {
		if s.Task != i+1 || s.Worker != "w0" {
			t.Fatalf("sample %d = %+v", i, s)
		}
	}
	mu.Unlock()

	if _, _, err := r.ExecuteTask(chainReq(sess, 6, "test_identity", 1.0)); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Frames != 2 || st.Dispatched != 6 || st.Completed != 6 {
		t.Fatalf("Stats = %+v after a lone task, want one more frame of one", st)
	}
}

// TestChainEvictedInput: a member whose input was evicted before it ran does
// not run and says so; the members that do not depend on it are unaffected,
// and the one handed back runs the ordinary way afterwards. A worker without
// a cache is never offered a chain.
func TestChainEvictedInput(t *testing.T) {
	const n = 300_000 // 2.4 MB a block: two do not fit a 4 MB cache
	t.Run("4 MB cache", func(t *testing.T) {
		r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1, CacheMB: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		sess := NextSession()
		replies, _, err := r.ExecuteChain([]*Request{
			chainReq(sess, 1, "test_floats_n", n),
			chainReq(sess, 2, "test_floats_n", n), // evicts the head's block
			chainReq(sess, 3, "test_identity", outOf(sess, 1)),
			chainReq(sess, 4, "test_identity", outOf(sess, 2)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if replies[0].Err != nil || replies[1].Err != nil || replies[3].Err != nil {
			t.Fatalf("members 0, 1, 3 must run: %v / %v / %v", replies[0].Err, replies[1].Err, replies[3].Err)
		}
		if replies[2].Err == nil || replies[2].Vals != nil {
			t.Fatalf("member 2 names an evicted block and still ran: %+v", replies[2])
		}
		if got := replies[3].Vals[0].([]float64); len(got) != n {
			t.Fatalf("member 3 returned %d floats, want %d", len(got), n)
		}
		// Handed back: the same task, alone, with its value and provenance.
		vals, _, err := r.ExecuteTask(&Request{
			Name: "test_identity", NOut: 1, Args: []any{replies[0].Vals[0]}, Session: sess, TaskID: 3,
			ArgRefs: []ArgRef{{Arg: 0, Elem: -1, Ref: outOf(sess, 1)}},
		})
		if err != nil || len(vals[0].([]float64)) != n {
			t.Fatalf("the handed-back member: %v", err)
		}
		if st := r.Stats(); st.Dispatched != st.Completed+st.Failed || st.Failed != 0 || st.Dispatched < 5 {
			t.Fatalf("Stats = %+v, want every request completed", st)
		}
	})
	t.Run("no cache", func(t *testing.T) {
		// The hello said so: the chain is never offered, the head travels
		// alone and the followers come back as they went, not as Misses.
		r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1, CacheMB: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		sess := NextSession()
		replies, _, err := r.ExecuteChain([]*Request{
			chainReq(sess, 1, "test_make_floats"),
			chainReq(sess, 2, "test_identity", outOf(sess, 1)),
			chainReq(sess, 3, "test_identity", 7.0),
		})
		if err != nil {
			t.Fatal(err)
		}
		if replies[0].Err != nil || len(replies[0].Vals[0].([]float64)) != 3 || replies[1].Err == nil || replies[2].Err == nil {
			t.Fatalf("want the head run and no follower offered: %+v", replies)
		}
		if st := r.Stats(); st.Frames != 1 || st.Dispatched != 1 || st.Completed != 1 || st.RefMisses != 0 {
			t.Fatalf("Stats = %+v, want 1 request in 1 frame and no Miss", st)
		}
	})
}

// TestChainWorkerKilled: the worker dies under a chain; the frame is lost and
// every request in it counts Failed, none Completed.
func TestChainWorkerKilled(t *testing.T) {
	r, err := SpawnLoopback(LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sess := NextSession()
	go func() {
		time.Sleep(50 * time.Millisecond)
		_ = r.KillWorker(0)
	}()
	replies, _, err := r.ExecuteChain([]*Request{
		chainReq(sess, 1, "test_make_floats"),
		chainReq(sess, 2, "test_sleep_ms", 5000),
		chainReq(sess, 3, "test_identity", outOf(sess, 1)),
	})
	if err == nil || replies != nil {
		t.Fatalf("a chain on a killed worker returned %v, %v", replies, err)
	}
	if st := r.Stats(); st.Frames != 1 || st.Dispatched != 3 || st.Failed != 3 || st.Completed != 0 {
		t.Fatalf("Stats = %+v, want the frame's 3 requests Failed", st)
	}
}
