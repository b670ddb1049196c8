package eddl

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"taskml/internal/compss"
	"taskml/internal/costs"
	"taskml/internal/mat"
	"taskml/internal/metrics"
)

// Federated learning is the extension the paper's conclusions call for:
// "our approach could incorporate federated learning in the future to train
// multiple models, which is particularly relevant for healthcare
// applications due to privacy constraints on data sharing. In this setup,
// various devices with local data contribute to training local models, and
// the resulting outcomes are then combined by a general model." This file
// implements that setup as a task workflow: per-device local training
// tasks, a FedAvg aggregation task per round, and a global evaluation —
// device data never leaves its task.

// holdoutFraction of the data is kept at the server for evaluation.
const holdoutFraction = 0.2

// FederatedConfig drives TrainFederated.
type FederatedConfig struct {
	// Devices is the number of participating edge devices. Default 8.
	Devices int
	// Rounds is the number of federated rounds. Default 10.
	Rounds int
	// LocalEpochs is how many epochs each device trains per round. Default 1.
	LocalEpochs int
	// NonIID skews the per-device class distribution: 0 gives IID shards;
	// 1 gives (nearly) single-class devices — the pathology federated
	// averaging must survive in real wearable fleets.
	NonIID float64
	// LR and Batch configure the local SGD. Defaults 0.05 / 16.
	LR    float64
	Batch int
	// Seed drives sharding and initialisation.
	Seed int64
}

func (c FederatedConfig) withDefaults() FederatedConfig {
	if c.Devices == 0 {
		c.Devices = 8
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	return c
}

// FederatedResult reports a federated training run.
type FederatedResult struct {
	// RoundAccuracies is the server-side holdout accuracy after each round.
	RoundAccuracies []float64
	// Final holds the aggregated model weights after the last round.
	Final []*mat.Dense
	// Confusion is the holdout confusion matrix of the final model.
	Confusion *metrics.Confusion
	// DeviceSamples records the shard sizes (FedAvg weights).
	DeviceSamples []int
}

// Accuracy returns the final-round holdout accuracy.
func (r *FederatedResult) Accuracy() float64 {
	if len(r.RoundAccuracies) == 0 {
		return 0
	}
	return r.RoundAccuracies[len(r.RoundAccuracies)-1]
}

// MergeWeightsWeighted averages weight sets with per-set weights — FedAvg's
// sample-count weighting.
func MergeWeightsWeighted(sets [][]*mat.Dense, weights []float64) ([]*mat.Dense, error) {
	if len(sets) == 0 {
		return nil, errors.New("eddl: no weight sets to merge")
	}
	if len(weights) != len(sets) {
		return nil, fmt.Errorf("eddl: %d weight sets, %d weights", len(sets), len(weights))
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("eddl: negative merge weight %v", w)
		}
		total += w
	}
	if total == 0 {
		return nil, errors.New("eddl: merge weights sum to zero")
	}
	out := make([]*mat.Dense, len(sets[0]))
	for i, w := range sets[0] {
		out[i] = mat.Scale(weights[0]/total, w)
	}
	for s := 1; s < len(sets); s++ {
		if len(sets[s]) != len(out) {
			return nil, errors.New("eddl: weight set arity mismatch")
		}
		for i, w := range sets[s] {
			if w.Rows != out[i].Rows || w.Cols != out[i].Cols {
				return nil, fmt.Errorf("eddl: weight %d shape mismatch", i)
			}
			mat.AddInPlace(out[i], mat.Scale(weights[s]/total, w))
		}
	}
	return out, nil
}

// shardDevices splits sample indices across devices. NonIID sorts a
// fraction of the data by label before round-robin, concentrating classes
// on subsets of devices.
func shardDevices(y []int, devices int, nonIID float64, rng *rand.Rand) [][]int {
	idx := rng.Perm(len(y))
	if nonIID > 0 {
		nSorted := int(nonIID * float64(len(idx)))
		sorted := append([]int(nil), idx[:nSorted]...)
		sort.Slice(sorted, func(a, b int) bool { return y[sorted[a]] < y[sorted[b]] })
		copy(idx[:nSorted], sorted)
	}
	shards := make([][]int, devices)
	per := (len(idx) + devices - 1) / devices
	for d := 0; d < devices; d++ {
		lo := d * per
		hi := lo + per
		if hi > len(idx) {
			hi = len(idx)
		}
		if lo < hi {
			shards[d] = idx[lo:hi]
		}
	}
	return shards
}

// TrainFederated runs FedAvg over the task runtime: each round submits one
// local-training task per device (the device's shard never appears in any
// other task), aggregates with a weighted merge task, and evaluates the
// global model on the server holdout.
func TrainFederated(rt *compss.Runtime, x *mat.Dense, y []int, arch Arch, cfg FederatedConfig) (*FederatedResult, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("eddl: %d rows vs %d labels", x.Rows, len(y))
	}
	arch = arch.withDefaults()
	if arch.InputLen != x.Cols {
		return nil, fmt.Errorf("eddl: input length %d, data has %d features", arch.InputLen, x.Cols)
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Server-side holdout.
	perm := rng.Perm(x.Rows)
	nHold := int(holdoutFraction * float64(x.Rows))
	if nHold < 1 || x.Rows-nHold < cfg.Devices {
		return nil, errors.New("eddl: dataset too small for the federation")
	}
	holdIdx, trainIdx := perm[:nHold], perm[nHold:]
	xh := mat.TakeRows(x, holdIdx)
	yh := make([]int, len(holdIdx))
	for i, r := range holdIdx {
		yh[i] = y[r]
	}
	ty := make([]int, len(trainIdx))
	for i, r := range trainIdx {
		ty[i] = y[r]
	}
	shards := shardDevices(ty, cfg.Devices, cfg.NonIID, rng)

	fwdFlops := arch.Build(0).FwdFlopsPerSample()
	weightBytes := arch.Build(0).WeightBytes()
	tc := rt.Main()

	// Device shards as tasks (the "local data" of each device).
	deviceData := make([]*compss.Future, cfg.Devices)
	sampleCounts := make([]int, cfg.Devices)
	for d := 0; d < cfg.Devices; d++ {
		local := shards[d]
		sampleCounts[d] = len(local)
		rows := make([]int, len(local))
		labels := make([]int, len(local))
		for i, r := range local {
			rows[i] = trainIdx[r]
			labels[i] = y[trainIdx[r]]
		}
		deviceData[d] = tc.Submit(compss.Opts{
			Name:     "fed_device_data",
			Cost:     costs.Copy(len(local), x.Cols),
			OutBytes: costs.Bytes(len(local), x.Cols),
		}, func(_ *compss.TaskCtx, _ []any) (any, error) {
			return &shard{x: mat.TakeRows(x, rows), y: labels}, nil
		})
	}

	initW := arch.Build(cfg.Seed).Weights()
	res := &FederatedResult{DeviceSamples: sampleCounts}
	var global any = initW
	for round := 0; round < cfg.Rounds; round++ {
		locals := make([]*compss.Future, cfg.Devices)
		for d := 0; d < cfg.Devices; d++ {
			dSeed := cfg.Seed + int64(round)*1009 + int64(d)*17
			n := sampleCounts[d]
			locals[d] = tc.Submit(compss.Opts{
				Name:     "fed_local",
				Cost:     costs.NNForwardBackward(n*cfg.LocalEpochs, fwdFlops),
				OutBytes: weightBytes,
			}, func(_ *compss.TaskCtx, args []any) (any, error) {
				sh := args[0].(*shard)
				ws := args[1].([]*mat.Dense)
				net := arch.Build(0)
				defer net.ReleaseScratch()
				if err := net.SetWeights(ws); err != nil {
					return nil, err
				}
				r := rand.New(rand.NewSource(dSeed))
				for e := 0; e < cfg.LocalEpochs; e++ {
					if sh.x.Rows == 0 {
						break
					}
					if _, err := net.TrainEpoch(sh.x, sh.y, cfg.LR, cfg.Batch, r); err != nil {
						return nil, err
					}
				}
				return net.Weights(), nil
			}, deviceData[d], global)
		}
		merged := tc.Submit(compss.Opts{
			Name:     "fed_avg",
			Cost:     costs.Copy(int(weightBytes/8), cfg.Devices),
			OutBytes: weightBytes,
		}, func(_ *compss.TaskCtx, args []any) (any, error) {
			sets := make([][]*mat.Dense, 0, cfg.Devices)
			weights := make([]float64, 0, cfg.Devices)
			for d, v := range args[0].([]any) {
				if sampleCounts[d] == 0 {
					continue
				}
				sets = append(sets, v.([]*mat.Dense))
				weights = append(weights, float64(sampleCounts[d]))
			}
			return MergeWeightsWeighted(sets, weights)
		}, locals)

		// The server synchronises the aggregate each round (the federated
		// analogue of the per-epoch weight retrieval); the next round's
		// tasks consume the future.
		mv, err := tc.Get(merged)
		if err != nil {
			return nil, err
		}
		res.Final = mv.([]*mat.Dense)
		global = merged

		evalFut := tc.Submit(compss.Opts{
			Name:     "fed_eval",
			Cost:     costs.NNForwardBackward(xh.Rows, fwdFlops) / 3,
			OutBytes: 64,
		}, func(_ *compss.TaskCtx, args []any) (any, error) {
			net := arch.Build(0)
			defer net.ReleaseScratch()
			if err := net.SetWeights(args[0].([]*mat.Dense)); err != nil {
				return nil, err
			}
			conf := metrics.NewConfusion(arch.Classes)
			conf.AddAll(yh, net.Predict(xh))
			return conf, nil
		}, global)
		cv, err := tc.Get(evalFut)
		if err != nil {
			return nil, err
		}
		conf := cv.(*metrics.Confusion)
		res.RoundAccuracies = append(res.RoundAccuracies, conf.Accuracy())
		res.Confusion = conf
	}
	return res, nil
}
