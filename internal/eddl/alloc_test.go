package eddl

import (
	"math/rand"
	"testing"

	"taskml/internal/par"
)

// The training batch step is the CNN hot loop: once the network's pooled
// scratch is warm, the only allocations left are the closure headers the
// par.For-based kernels create per call (a few dozen bytes, independent of
// batch and model size). The bound pins that level — the pre-arena
// implementation allocated every activation and gradient matrix fresh,
// ~50 heap objects per step growing with the model.
func TestBatchStepSteadyStateAllocsBounded(t *testing.T) {
	defer par.Lend(make(par.Slots))() // no slot to borrow: every kernel runs on its caller
	rng := rand.New(rand.NewSource(3))
	x, y := waves(rng, 64, 16)
	net := tinyArch().Build(3)
	defer net.ReleaseScratch()
	idx := rng.Perm(x.Rows)[:32]
	net.batchStep(x, y, idx) // warm the scratch buffers
	a := testing.AllocsPerRun(100, func() { net.batchStep(x, y, idx) })
	if a > 12 {
		t.Errorf("batchStep allocates %v times per call, want <= 12", a)
	}
}

// A full TrainEpoch still allocates the shuffled order (rng.Perm), but the
// per-batch cost must not scale with the batch count — the regression guard
// for the arena-backed layer scratch.
func TestTrainEpochSteadyStateAllocsBounded(t *testing.T) {
	defer par.Lend(make(par.Slots))() // no slot to borrow: every kernel runs on its caller
	rng := rand.New(rand.NewSource(4))
	x, y := waves(rng, 128, 16)
	net := tinyArch().Build(4)
	defer net.ReleaseScratch()
	if _, err := net.TrainEpoch(x, y, 0.05, 32, rng); err != nil { // warm-up
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(20, func() {
		if _, err := net.TrainEpoch(x, y, 0.05, 32, rng); err != nil {
			t.Fatal(err)
		}
	})
	// rng.Perm allocates two slices and each of the four batches pays the
	// kernels' closure headers; everything matrix-sized must be reuse. The
	// pre-arena implementation sat near 200 allocations per epoch here.
	if a > 48 {
		t.Errorf("TrainEpoch allocates %v times per epoch, want <= 48", a)
	}
}

// ReleaseScratch must leave the network usable: training continues
// bit-identically by re-drawing buffers from the pool.
func TestReleaseScratchThenTrainAgain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := waves(rng, 64, 16)
	net := tinyArch().Build(5)
	trainRng := rand.New(rand.NewSource(6))
	if _, err := net.TrainEpoch(x, y, 0.05, 32, trainRng); err != nil {
		t.Fatal(err)
	}
	net.ReleaseScratch()
	if _, err := net.TrainEpoch(x, y, 0.05, 32, trainRng); err != nil {
		t.Fatal(err)
	}
	pred := net.Predict(x)
	if len(pred) != x.Rows {
		t.Fatalf("predict returned %d rows, want %d", len(pred), x.Rows)
	}
}
