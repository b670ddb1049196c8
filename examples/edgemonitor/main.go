// edgemonitor completes the paper's Figure 1 pipeline: a model trained in
// the "cloud" (a RandomForest fitted through the distributed pipeline) is
// deployed to a simulated wearable that classifies the incoming ECG stream
// in sliding windows and raises a debounced alarm when an atrial-
// fibrillation episode begins — the inference-at-the-edge part the paper
// leaves as future work.
//
// A practical lesson is baked in (core.TrainServeModel): the training
// examples are cut as exact analysis windows from longer recordings, so the
// deployed model sees the same distribution it was trained on (training on
// whole zero-padded recordings and serving 10-second windows mis-calibrates
// the features).
//
// Run: go run ./examples/edgemonitor
package main

import (
	"fmt"
	"log"

	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/ecg"
	"taskml/internal/edge"
)

const (
	windowSec = 10.0
	fs        = 300.0
)

func main() {
	// 1. Train the forest through the distributed pipeline, on 120 exact
	//    analysis windows per class.
	rt := compss.New(compss.Config{})
	model, err := core.TrainServeModel(rt, fs, windowSec, 30, 120, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %d trees to the edge device (%d tasks ran)\n\n", len(model.Trees), rt.Graph().Len())

	// 2. The edge side: the model's featurizer and forest majority vote.
	featurize, classify := model.Edge()

	// 3. Stream a paroxysmal recording: 60 s sinus rhythm, then AF.
	streamGen := ecg.NewGenerator(ecg.GenConfig{Fs: fs, Seed: 99, NoiseStd: 0.05, AFSubtlety: 0.05})
	rec, onset := streamGen.Paroxysmal(60, 60)
	onsetSec := float64(onset) / rec.Fs
	events, alarm, err := edge.Run(edge.Config{
		Fs: rec.Fs, WindowSec: windowSec, StrideSec: 5, AlarmAfter: 2, PositiveLabel: core.LabelAF,
	}, featurize, classify, rec.Signal)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streamed %.0f s of ECG (%d windows), AF onset at %.0f s\n",
		rec.DurationSec(), len(events), onsetSec)
	for _, e := range events {
		marker := ""
		if e.Label == core.LabelAF {
			marker = " AF"
		}
		if e.Alarm {
			marker += "  << ALARM"
		}
		fmt.Printf("  t=%5.1fs%s\n", e.TimeSec, marker)
	}
	if alarm < 0 {
		fmt.Println("episode missed — tune the window or the model")
		return
	}
	fmt.Printf("\nAF alarm at %.1f s — detection latency %.1f s after onset\n",
		alarm, edge.DetectionLatency(alarm, onsetSec))
}
