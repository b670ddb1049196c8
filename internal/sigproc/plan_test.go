package sigproc

import (
	"math/rand"
	"testing"

	"taskml/internal/mat"
	"taskml/internal/par"
)

func planTestSignal(n int) []float64 {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestPlanForCachesPerConfig(t *testing.T) {
	c := SpectrogramConfig{Fs: 300, WindowSize: 64, Overlap: 32}
	p1, err := PlanFor(c)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("PlanFor returned distinct plans for the same configuration")
	}
	other := SpectrogramConfig{Fs: 300, WindowSize: 128, Overlap: 32}
	p3, err := PlanFor(other)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("PlanFor shared a plan across configurations")
	}
	if _, err := PlanFor(SpectrogramConfig{Fs: 300, WindowSize: 63, Overlap: 32}); err == nil {
		t.Fatal("want validation error for non-power-of-two window")
	}
}

func TestExecuteIntoMatchesExecuteBitIdentical(t *testing.T) {
	c := SpectrogramConfig{Fs: 300, WindowSize: 128, Overlap: 64}
	p, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	x := planTestSignal(3000)
	ref, _, _, err := p.Execute(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 4} {
		func() {
			defer par.Lend(make(par.Slots, limit-1))() // limit goroutines a region
			dst := mat.Scratch.GetDense(c.NumBins(), c.NumSegments(len(x)))
			defer mat.Scratch.PutDense(dst)
			p.ExecuteInto(x, dst)
			for i := range ref.Data {
				if dst.Data[i] != ref.Data[i] {
					t.Fatalf("limit %d: element %d differs: %v vs %v", limit, i, dst.Data[i], ref.Data[i])
				}
			}
		}()
	}
}

func TestExecuteIntoShapePanics(t *testing.T) {
	c := SpectrogramConfig{Fs: 300, WindowSize: 64, Overlap: 32}
	p, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on mis-shaped dst")
		}
	}()
	p.ExecuteInto(planTestSignal(640), mat.New(3, 3))
}

// The per-segment STFT loop is the feature-extraction hot path: after the
// plan's work buffers are warm, a whole ExecuteInto must stay (near)
// allocation-free regardless of how many segments it covers. The bound
// leaves headroom for a background GC emptying the sync.Pools mid-loop.
func TestSTFTSegmentLoopAllocFree(t *testing.T) {
	defer par.Lend(make(par.Slots))() // no slot to borrow: every kernel runs on its caller
	c := SpectrogramConfig{Fs: 300, WindowSize: 256, Overlap: 32}
	p, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	x := planTestSignal(18000)
	nseg := c.NumSegments(len(x))
	dst := mat.Scratch.GetDense(c.NumBins(), nseg)
	defer mat.Scratch.PutDense(dst)
	p.ExecuteInto(x, dst) // warm the buffer pool
	a := testing.AllocsPerRun(50, func() { p.ExecuteInto(x, dst) })
	limit := 1.0
	if raceEnabled {
		// ~1/4 of pool Puts are dropped under -race, so a fraction of calls
		// re-allocate their FFT buffer; keep the bound, just looser.
		limit = 3
	}
	if a > limit {
		t.Errorf("ExecuteInto allocates %v times per call over %d segments, want ~0", a, nseg)
	}
}

// BenchmarkSpectrogramPlan18000 is BenchmarkSpectrogram18000 with the plan
// held and the output reused — the steady-state regime of the per-recording
// feature tasks; the -benchmem delta against the allocating benchmark is
// this PR's headline for sigproc.
func BenchmarkSpectrogramPlan18000(b *testing.B) {
	x := planTestSignal(18000)
	c := SpectrogramConfig{Fs: 300, WindowSize: 256, Overlap: 32}
	p, err := NewPlan(c)
	if err != nil {
		b.Fatal(err)
	}
	dst := mat.Scratch.GetDense(c.NumBins(), c.NumSegments(len(x)))
	defer mat.Scratch.PutDense(dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ExecuteInto(x, dst)
	}
}
