package edge

import (
	"errors"
	"math"
	"testing"

	"taskml/internal/ecg"
)

// rrFeaturizer summarises a window with its RR-interval statistics — a
// tiny hand-made feature pipeline good enough for unit tests.
func rrFeaturizer(window []float64, fs float64) ([]float64, error) {
	peaks := ecg.DetectRPeaks(window, fs)
	rrs := ecg.RRIntervals(peaks, fs)
	if len(rrs) == 0 {
		return []float64{0, 0}, nil
	}
	var mean float64
	for _, v := range rrs {
		mean += v
	}
	mean /= float64(len(rrs))
	var sd float64
	for _, v := range rrs {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(len(rrs)))
	return []float64{mean, sd / math.Max(mean, 1e-9)}, nil
}

// rrClassifier flags high RR variability as AF (label 0).
func rrClassifier(f []float64) (int, error) {
	if f[1] > 0.12 {
		return 0, nil // AF
	}
	return 1, nil // Normal
}

func TestMonitorConfigValidation(t *testing.T) {
	bad := []Config{
		{Fs: 0},
		{Fs: 300, WindowSec: 2, StrideSec: 5},
		{Fs: 300, WindowSec: -1},
		{Fs: 100, WindowSec: 8, StrideSec: 0.001}, // a stride of 0.1 samples
		{Fs: 100, WindowSec: 0.001, StrideSec: 0.001},
	}
	for i, cfg := range bad {
		if _, _, err := Run(cfg, rrFeaturizer, rrClassifier, nil); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
	if _, _, err := Run(Config{Fs: 300}, nil, rrClassifier, nil); err == nil {
		t.Fatal("nil featurizer must error")
	}
	if _, _, err := Run(Config{Fs: 300}, rrFeaturizer, nil, nil); err == nil {
		t.Fatal("nil classifier must error")
	}
}

func TestNoAlarmOnNormalRhythm(t *testing.T) {
	g := ecg.NewGenerator(ecg.GenConfig{Seed: 1, MinDurSec: 60, MaxDurSec: 60.5, NoiseStd: 0.02})
	rec := g.Record(ecg.Normal)
	events, alarm, err := Run(Config{Fs: rec.Fs, WindowSec: 10, StrideSec: 5}, rrFeaturizer, rrClassifier, rec.Signal)
	if err != nil {
		t.Fatal(err)
	}
	if alarm >= 0 {
		t.Fatalf("false alarm at %v s on a Normal recording", alarm)
	}
	if len(events) < 8 {
		t.Fatalf("only %d events from a 60 s stream", len(events))
	}
}

func TestAlarmOnParoxysmalEpisode(t *testing.T) {
	g := ecg.NewGenerator(ecg.GenConfig{Seed: 2, NoiseStd: 0.02})
	rec, onset := g.Paroxysmal(40, 40)
	onsetSec := float64(onset) / rec.Fs
	events, alarm, err := Run(Config{Fs: rec.Fs, WindowSec: 10, StrideSec: 5, AlarmAfter: 2},
		rrFeaturizer, rrClassifier, rec.Signal)
	if err != nil {
		t.Fatal(err)
	}
	if alarm < 0 {
		t.Fatal("missed the AF episode")
	}
	latency := DetectionLatency(alarm, onsetSec)
	if latency < 0 || latency > 30 {
		t.Fatalf("detection latency %v s (onset %v, alarm %v)", latency, onsetSec, alarm)
	}
	// Exactly one alarm event.
	alarms := 0
	for _, e := range events {
		if e.Alarm {
			alarms++
		}
	}
	if alarms != 1 {
		t.Fatalf("%d alarm events, want 1", alarms)
	}
}

func TestDebounceSuppressesIsolatedPositives(t *testing.T) {
	// A classifier that flags exactly one window as positive cannot trip a
	// 2-window debounce.
	calls := 0
	flaky := func(_ []float64) (int, error) {
		calls++
		if calls == 3 {
			return 0, nil
		}
		return 1, nil
	}
	signal := make([]float64, 300*60)
	_, alarm, err := Run(Config{Fs: 300, WindowSec: 10, StrideSec: 5, AlarmAfter: 2},
		rrFeaturizer, flaky, signal)
	if err != nil {
		t.Fatal(err)
	}
	if alarm >= 0 {
		t.Fatal("debounce failed: isolated positive raised the alarm")
	}
}

// TestPushChunkingInvariance drives a Windower and a Debouncer the way
// internal/serve does — samples pushed in 777-sample chunks, every window
// cut as it completes, its label applied in stream order — and requires
// the events of Run, the reference loop over the whole signal, event for
// event.
func TestPushChunkingInvariance(t *testing.T) {
	g := ecg.NewGenerator(ecg.GenConfig{Seed: 3, NoiseStd: 0.02})
	rec, _ := g.Paroxysmal(30, 30)
	cfg := Config{Fs: rec.Fs, WindowSec: 8, StrideSec: 4}

	whole, _, err := Run(cfg, rrFeaturizer, rrClassifier, rec.Signal)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWindower(cfg.WindowSamples(), cfg.StrideSamples())
	if err != nil {
		t.Fatal(err)
	}
	deb := NewDebouncer(cfg)
	var chunked []Event
	for at := 0; at < len(rec.Signal); at += 777 {
		w.Push(rec.Signal[at:min(at+777, len(rec.Signal))]...)
		for {
			window, end, ok := w.Peek()
			if !ok {
				break
			}
			feats, err := rrFeaturizer(window, cfg.Fs)
			if err != nil {
				t.Fatal(err)
			}
			label, err := rrClassifier(feats)
			if err != nil {
				t.Fatal(err)
			}
			w.Advance()
			chunked = append(chunked, deb.Apply(end, label))
		}
	}
	if len(whole) != len(chunked) {
		t.Fatalf("chunked %d events vs %d whole", len(chunked), len(whole))
	}
	for i := range whole {
		if whole[i] != chunked[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, whole[i], chunked[i])
		}
	}
}

func TestClassifierErrorPropagates(t *testing.T) {
	boom := func(_ []float64) (int, error) { return 0, errors.New("model gone") }
	_, _, err := Run(Config{Fs: 300, WindowSec: 1, StrideSec: 1}, rrFeaturizer, boom, make([]float64, 600))
	if err == nil {
		t.Fatal("classifier error must propagate")
	}
}

func TestDetectionLatencyMissed(t *testing.T) {
	if DetectionLatency(-1, 10) != -1 {
		t.Fatal("missed alarm latency must be -1")
	}
	if DetectionLatency(15, 10) != 5 {
		t.Fatal("latency arithmetic wrong")
	}
}
