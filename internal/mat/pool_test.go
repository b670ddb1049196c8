package mat

import (
	"math"
	"testing"

	"taskml/internal/par"
)

func TestBucketFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{maxPooledLen, maxPooledBits}, {maxPooledLen + 1, -1},
	}
	for _, c := range cases {
		if got := bucketFor(c.n); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPoolGetZeroedAfterDirtyPut(t *testing.T) {
	p := &Pool{}
	s := p.Get(100)
	if len(s) != 100 {
		t.Fatalf("len = %d, want 100", len(s))
	}
	for i := range s {
		s[i] = 1 + float64(i)
	}
	p.Put(s)
	// The next Get in the same bucket must be zeroed even if it reuses the
	// dirty buffer.
	s2 := p.Get(70)
	if len(s2) != 70 {
		t.Fatalf("len = %d, want 70", len(s2))
	}
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want Gets 2, Puts 1", st)
	}
}

func TestPoolPutDropsForeignCapacities(t *testing.T) {
	p := &Pool{}
	// A slice whose capacity is not an exact bucket size must not enter a
	// bucket (it could short-change a later Get).
	p.Put(make([]float64, 100)) // cap 100, not a power of two
	s := p.Get(100)
	if cap(s) != 128 {
		t.Fatalf("Get(100) cap = %d, want bucket capacity 128", cap(s))
	}
}

func TestGetDensePutDenseRoundTrip(t *testing.T) {
	p := &Pool{}
	m := p.GetDense(10, 12)
	if m.Rows != 10 || m.Cols != 12 || len(m.Data) != 120 || cap(m.Data) != 128 {
		t.Fatalf("unexpected shape %dx%d len %d cap %d", m.Rows, m.Cols, len(m.Data), cap(m.Data))
	}
	m.Data[0] = 42
	p.PutDense(m)
	// Reuse across a different shape in the same bucket.
	m2 := p.GetDense(11, 11)
	if m2.Rows != 11 || m2.Cols != 11 {
		t.Fatalf("unexpected shape %dx%d", m2.Rows, m2.Cols)
	}
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("reused Dense not zeroed at %d: %v", i, v)
		}
	}
	if st := p.Stats(); st.Reuses == 0 {
		if !raceEnabled {
			t.Fatalf("expected the second GetDense to reuse, stats %+v", st)
		}
		// Under -race sync.Pool drops a random fraction of Puts to expose
		// lifetime bugs, so a single round trip is not guaranteed to reuse;
		// keep cycling until one lands.
		reused := false
		for i := 0; i < 200 && !reused; i++ {
			p.PutDense(m2)
			m2 = p.GetDense(11, 11)
			reused = p.Stats().Reuses > 0
		}
		if !reused {
			t.Fatalf("no reuse after 200 round trips under -race, stats %+v", p.Stats())
		}
	}
}

func TestGrowDenseReusesCapacity(t *testing.T) {
	p := &Pool{}
	var buf *Dense
	m := p.GrowDense(&buf, 8, 16) // cap 128
	first := &m.Data[0]
	m.Data[5] = 7
	// Shrinking and regrowing within capacity must keep the same backing
	// array and zero the used region.
	m = p.GrowDense(&buf, 4, 8)
	if &m.Data[0] != first {
		t.Fatal("GrowDense within capacity reallocated")
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("GrowDense region not zeroed at %d: %v", i, v)
		}
	}
	// Growing past capacity swaps buffers.
	m = p.GrowDense(&buf, 32, 32)
	if m.Rows != 32 || m.Cols != 32 {
		t.Fatalf("unexpected shape %dx%d", m.Rows, m.Cols)
	}
	p.ReleaseDense(&buf)
	if buf != nil {
		t.Fatal("ReleaseDense did not nil the field")
	}
	p.ReleaseDense(&buf) // nil release is a no-op
}

func TestPoolDebugPoisonsOnPut(t *testing.T) {
	p := &Pool{}
	p.SetDebug(true)
	s := p.Get(16)
	for i := range s {
		s[i] = 1
	}
	p.Put(s)
	// The caller wrongly kept the reference: it must see NaN, not stale 1s.
	for i, v := range s {
		if !math.IsNaN(v) {
			t.Fatalf("debug Put left s[%d] = %v, want NaN", i, v)
		}
	}
	m := p.GetDense(4, 4)
	p.PutDense(m)
	for i, v := range m.Data[:cap(m.Data)] {
		if !math.IsNaN(v) {
			t.Fatalf("debug PutDense left Data[%d] = %v, want NaN", i, v)
		}
	}
	// Poisoned buffers re-enter the pool; a Get must still hand them back
	// zeroed.
	s2 := p.Get(16)
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("poisoned reuse not zeroed at %d: %v", i, v)
		}
	}
}

func TestPoolDisabledNeverReuses(t *testing.T) {
	p := &Pool{}
	p.SetDisabled(true)
	s := p.Get(64)
	s[0] = 9
	p.Put(s)
	s2 := p.Get(64)
	if &s2[0] == &s[0] {
		t.Fatal("disabled pool reused a buffer")
	}
	if st := p.Stats(); st.Reuses != 0 {
		t.Fatalf("disabled pool recorded reuses: %+v", st)
	}
}

// The alloc-regression floor for the scalar kernels: Dot and Axpy are leaf
// loops and must never allocate.
func TestDotAxpyAllocFree(t *testing.T) {
	x := make([]float64, 4096)
	y := make([]float64, 4096)
	for i := range x {
		x[i] = float64(i%7) - 3
		y[i] = float64(i%5) - 2
	}
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink += Dot(x, y) }); a != 0 {
		t.Errorf("Dot allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { Axpy(0.5, x, y) }); a != 0 {
		t.Errorf("Axpy allocates %v times per call, want 0", a)
	}
	_ = sink
}

// Steady-state Get/Put traffic must be allocation-free: after warm-up every
// request is served from a bucket. A background GC can empty a sync.Pool
// mid-loop, so the assertion leaves a little headroom instead of demanding
// an exact zero.
func TestPoolSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random fraction of Puts under -race, so steady state is not allocation-free there; run without -race for the strict assertion")
	}
	defer par.Lend(make(par.Slots))() // no slot to borrow: every kernel runs on its caller
	p := &Pool{}
	for i := 0; i < 4; i++ { // warm the buckets
		p.Put(p.Get(1000))
		p.PutDense(p.GetDense(30, 30))
	}
	a := testing.AllocsPerRun(200, func() {
		s := p.Get(1000)
		m := p.GetDense(30, 30)
		p.PutDense(m)
		p.Put(s)
	})
	if a > 0.5 {
		t.Errorf("steady-state Get/Put allocates %v times per cycle, want ~0", a)
	}
}

// The Into variants must agree bit-for-bit with their allocating
// counterparts — they share the same accumulate kernels after a clear.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	a := fill(17, 23, 1)
	bt := fill(23, 9, 2).T()
	dst := Scratch.GetDense(17, 9)
	defer Scratch.PutDense(dst)

	MulABtInto(dst, a, bt)
	requireEqual(t, "MulABtInto", dst, MulABt(a, bt))

	idx := []int{3, 0, 16, 7}
	sub := Scratch.GetDense(len(idx), a.Cols)
	defer Scratch.PutDense(sub)
	TakeRowsInto(sub, a, idx)
	requireEqual(t, "TakeRowsInto", sub, TakeRows(a, idx))

	norms := RowNormsInto(Scratch.Get(a.Rows), a)
	defer Scratch.Put(norms)
	for r := 0; r < a.Rows; r++ {
		if norms[r] != Dot(a.Row(r), a.Row(r)) {
			t.Fatalf("RowNormsInto row %d: %v vs %v", r, norms[r], Dot(a.Row(r), a.Row(r)))
		}
	}
}

func TestIntoVariantsShapePanics(t *testing.T) {
	a := fill(4, 5, 1)
	b := fill(5, 3, 2)
	bad := New(4, 4)
	for name, f := range map[string]func(){
		"MulABtInto":   func() { MulABtInto(bad, a, b.T()) },
		"TakeRowsInto": func() { TakeRowsInto(bad, a, []int{0, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

func fill(r, c int, seed float64) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = math.Sin(seed + float64(i)*0.37)
	}
	return m
}

func requireEqual(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.Data[i], want.Data[i])
		}
	}
}
