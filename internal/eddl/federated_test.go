package eddl

import (
	"math/rand"
	"testing"

	"taskml/internal/compss"
	"taskml/internal/mat"
)

func TestMergeWeightsWeighted(t *testing.T) {
	sets := [][]*mat.Dense{
		{mat.NewFromData(1, 2, []float64{0, 0})},
		{mat.NewFromData(1, 2, []float64{10, 20})},
	}
	m, err := MergeWeightsWeighted(sets, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m[0].At(0, 0) != 2.5 || m[0].At(0, 1) != 5 {
		t.Fatalf("weighted merge = %v", m[0])
	}
}

func TestMergeWeightsWeightedErrors(t *testing.T) {
	one := [][]*mat.Dense{{mat.New(1, 1)}}
	if _, err := MergeWeightsWeighted(nil, nil); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := MergeWeightsWeighted(one, []float64{1, 2}); err == nil {
		t.Fatal("want arity error")
	}
	if _, err := MergeWeightsWeighted(one, []float64{0}); err == nil {
		t.Fatal("want zero-weight error")
	}
	if _, err := MergeWeightsWeighted(one, []float64{-1}); err == nil {
		t.Fatal("want negative-weight error")
	}
	two := [][]*mat.Dense{{mat.New(1, 1)}, {mat.New(2, 2)}}
	if _, err := MergeWeightsWeighted(two, []float64{1, 1}); err == nil {
		t.Fatal("want shape error")
	}
}

func TestShardDevicesPartition(t *testing.T) {
	y := make([]int, 103)
	for i := range y {
		y[i] = i % 2
	}
	rng := rand.New(rand.NewSource(1))
	shards := shardDevices(y, 8, 0, rng)
	seen := map[int]bool{}
	total := 0
	for _, sh := range shards {
		for _, i := range sh {
			if seen[i] {
				t.Fatalf("index %d in two shards", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != 103 {
		t.Fatalf("shards cover %d of 103", total)
	}
}

func TestShardDevicesNonIIDSkews(t *testing.T) {
	y := make([]int, 200)
	for i := range y {
		y[i] = i % 2
	}
	rng := rand.New(rand.NewSource(2))
	skewed := shardDevices(y, 4, 1, rng)
	// With full skew, at least one device should be (almost) single-class.
	maxImbalance := 0.0
	for _, sh := range skewed {
		ones := 0
		for _, i := range sh {
			ones += y[i]
		}
		frac := float64(ones) / float64(len(sh))
		if imb := absf(frac - 0.5); imb > maxImbalance {
			maxImbalance = imb
		}
	}
	if maxImbalance < 0.4 {
		t.Fatalf("non-IID sharding max imbalance %v, want near 0.5", maxImbalance)
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestTrainFederatedLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := waves(rng, 240, 16)
	rt := compss.New(compss.Config{Workers: 4})
	arch := tinyArch()
	res, err := TrainFederated(rt, x, y, arch, FederatedConfig{
		Devices: 4, Rounds: 12, LocalEpochs: 2, LR: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundAccuracies) != 12 {
		t.Fatalf("%d round accuracies", len(res.RoundAccuracies))
	}
	if res.Accuracy() < 0.8 {
		t.Fatalf("federated accuracy %v", res.Accuracy())
	}
	if res.Confusion.Total() == 0 || len(res.Final) == 0 {
		t.Fatal("result incomplete")
	}
	// Graph shape: Devices local tasks per round, one fed_avg per round.
	counts := rt.Graph().CountByName()
	if counts["fed_local"] != 4*12 || counts["fed_avg"] != 12 || counts["fed_eval"] != 12 {
		t.Fatalf("federated graph shape: %v", counts)
	}
	if counts["fed_device_data"] != 4 {
		t.Fatalf("device data tasks: %v", counts)
	}
}

func TestTrainFederatedNonIIDHarder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := waves(rng, 240, 16)
	arch := tinyArch()
	run := func(nonIID float64) float64 {
		rt := compss.New(compss.Config{Workers: 4})
		res, err := TrainFederated(rt, x, y, arch, FederatedConfig{
			Devices: 6, Rounds: 4, LocalEpochs: 2, LR: 0.1, Seed: 4, NonIID: nonIID,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Early-round average: convergence speed, not final quality.
		var s float64
		for _, a := range res.RoundAccuracies {
			s += a
		}
		return s / float64(len(res.RoundAccuracies))
	}
	iid := run(0)
	skewed := run(1)
	if skewed > iid+0.05 {
		t.Fatalf("non-IID (%v) should not converge faster than IID (%v)", skewed, iid)
	}
}

func TestTrainFederatedValidation(t *testing.T) {
	rt := compss.New(compss.Config{Workers: 2})
	x := mat.New(10, 16)
	if _, err := TrainFederated(rt, x, make([]int, 9), tinyArch(), FederatedConfig{}); err == nil {
		t.Fatal("want label mismatch error")
	}
	bad := tinyArch()
	bad.InputLen = 4
	if _, err := TrainFederated(rt, x, make([]int, 10), bad, FederatedConfig{}); err == nil {
		t.Fatal("want input length error")
	}
	if _, err := TrainFederated(rt, x, make([]int, 10), tinyArch(), FederatedConfig{Devices: 50}); err == nil {
		t.Fatal("want too-small dataset error")
	}
}
