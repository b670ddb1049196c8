package core_test

import (
	"fmt"
	"log"

	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/ecg"
	"taskml/internal/edge"
)

// The paper's full healthcare workflow on a small synthetic dataset: ECG
// generation → class balancing by shuffling augmentation (Figure 2) →
// zero-padding → STFT features → distributed PCA (§III-B.4) → a
// RandomForest trained with 5-fold cross-validation — then the Table
// I-style confusion matrix and the per-class metrics the paper's
// stroke-care discussion (precision focus vs recall focus) is based on.
func ExampleRunCV() {
	// 1. Generate an imbalanced dataset mirroring the CinC-2017 prior
	//    (≈6.7 Normal per AF) and balance it with the augmentation.
	ds, err := core.BuildDataset(core.DataConfig{
		NNormal: 160, NAF: 24, Seed: 7,
		MinDurSec: 9, MaxDurSec: 15,
		Feature: core.FeatureConfig{PadSec: 15, Window: 256, MaxFreqHz: 40, TimePool: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	af, normal := ds.Counts()
	fmt.Printf("dataset: %d AF / %d Normal after augmentation, %d STFT features\n",
		af, normal, ds.X.Cols)

	// Peek at the signal substrate: R-peak detection on one recording.
	rec := ds.Records[0]
	peaks := ecg.DetectRPeaks(rec.Signal, rec.Fs)
	fmt.Printf("first recording: %s, %.1f s, %d R peaks detected\n",
		rec.Class, rec.DurationSec(), len(peaks))

	// 2. Train and evaluate the RandomForest (the paper's most accurate
	//    classical model) with the distributed pipeline.
	rep, err := core.RunCV(core.ModelRF, ds, core.PipelineConfig{Seed: 7, BlockRows: 60})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRandomForest, 5-fold CV (PCA kept %d components):\n", rep.PCAK)
	fmt.Printf("accuracy %.1f%%\n", 100*rep.Accuracy())
	fmt.Println(rep.RenderConfusion())

	// 3. The paper's clinical framing: in stroke care a false negative
	//    (missed AF) is worse than a false alarm, so recall on AF matters.
	fmt.Printf("AF precision: %.3f (false-alarm control)\n", rep.Confusion.Precision(core.LabelAF))
	fmt.Printf("AF recall:    %.3f (missed-AF control — the clinical priority)\n", rep.Confusion.Recall(core.LabelAF))
	fmt.Printf("AF F1:        %.3f\n", rep.Confusion.F1(core.LabelAF))
	fmt.Printf("\nworkflow executed %d tasks on the runtime\n", rep.Runtime.Graph().Len())
	// Output:
	// dataset: 160 AF / 160 Normal after augmentation, 280 STFT features
	// first recording: Normal, 14.2 s, 34 R peaks detected
	//
	// RandomForest, 5-fold CV (PCA kept 33 components):
	// accuracy 86.2%
	//           Prediction
	//               AF       N
	// AF         0.431   0.069
	// N          0.069   0.431
	//
	// AF precision: 0.863 (false-alarm control)
	// AF recall:    0.863 (missed-AF control — the clinical priority)
	// AF F1:        0.863
	//
	// workflow executed 2407 tasks on the runtime
}

// The paper's Figure 1 pipeline, completed: a model trained in the "cloud"
// (a RandomForest fitted through the distributed pipeline) is deployed to a
// simulated wearable that classifies the incoming ECG stream in sliding
// windows and raises a debounced alarm when an atrial-fibrillation episode
// begins — the inference-at-the-edge part the paper leaves as future work.
//
// TrainServeModel cuts the training examples as exact analysis windows from
// longer recordings, so the deployed model sees the same distribution it
// was trained on (training on whole zero-padded recordings and serving
// 10-second windows mis-calibrates the features).
func ExampleTrainServeModel() {
	const (
		windowSec = 10.0
		fs        = 300.0
	)
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
	// Output:
	// deployed 30 trees to the edge device (159 tasks ran)
	//
	// streamed 120 s of ECG (23 windows), AF onset at 60 s
	//   t= 10.0s
	//   t= 15.0s
	//   t= 20.0s
	//   t= 25.0s AF
	//   t= 30.0s
	//   t= 35.0s
	//   t= 40.0s
	//   t= 45.0s
	//   t= 50.0s
	//   t= 55.0s
	//   t= 60.0s
	//   t= 65.0s AF
	//   t= 70.0s AF  << ALARM
	//   t= 75.0s AF
	//   t= 80.0s AF
	//   t= 85.0s
	//   t= 90.0s AF
	//   t= 95.0s AF
	//   t=100.0s AF
	//   t=105.0s AF
	//   t=110.0s AF
	//   t=115.0s AF
	//   t=120.0s
	//
	// AF alarm at 70.0 s — detection latency 10.0 s after onset
}
