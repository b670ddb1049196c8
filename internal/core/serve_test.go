package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"taskml/internal/compss"
	"taskml/internal/dsarray"
	"taskml/internal/ecg"
	"taskml/internal/edge"
	"taskml/internal/exec"
	"taskml/internal/forest"
	"taskml/internal/mat"
	"taskml/internal/serve"
)

const serveTestWindowSec = 4.0

// trainServeModel fits a small forest on exact analysis windows (the
// edgemonitor recipe, shrunk for test time) and bundles it for serving.
func trainServeModel(t *testing.T) *ServeModel {
	t.Helper()
	feat := FeatureConfig{PadSec: serveTestWindowSec, Window: 128, MaxFreqHz: 30, TimePool: 2}
	gen := ecg.NewGenerator(ecg.GenConfig{
		Fs: 100, Seed: 7, MinDurSec: 5, MaxDurSec: 8, NoiseStd: 0.05, AFSubtlety: 0.05,
	})
	rng := rand.New(rand.NewSource(8))
	const perClass = 20
	var rows [][]float64
	var labels []int
	for _, class := range []ecg.Class{ecg.Normal, ecg.AF} {
		for i := 0; i < perClass; i++ {
			rec := gen.Record(class)
			win := int(serveTestWindowSec * rec.Fs)
			at := rng.Intn(len(rec.Signal) - win)
			f, err := feat.Features(ecg.Record{Signal: rec.Signal[at : at+win], Fs: rec.Fs})
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, f)
			label := LabelNormal
			if class == ecg.AF {
				label = LabelAF
			}
			labels = append(labels, label)
		}
	}
	x := mat.NewFromRows(rows)
	rt := compss.New(compss.Config{})
	xa := dsarray.FromMatrix(rt.Main(), x, 10, x.Cols)
	ya := dsarray.FromLabels(rt.Main(), labels, 10)
	rf := &forest.RandomForest{Params: forest.Params{NEstimators: 7, Seed: 7}}
	if err := rf.Fit(xa, ya); err != nil {
		t.Fatal(err)
	}
	trees, err := rf.Trees(rt.Main())
	if err != nil {
		t.Fatal(err)
	}
	return &ServeModel{Feat: feat, Trees: trees}
}

func serveTestSignals() [][]float64 {
	var signals [][]float64
	for i, split := range [][2]float64{{20, 20}, {30, 10}} {
		gen := ecg.NewGenerator(ecg.GenConfig{
			Fs: 100, Seed: int64(31 + i), NoiseStd: 0.05, AFSubtlety: 0.05,
		})
		rec, _ := gen.Paroxysmal(split[0], split[1])
		signals = append(signals, rec.Signal)
	}
	return signals
}

func serveWindowConfig() edge.Config {
	return edge.Config{Fs: 100, WindowSec: serveTestWindowSec, StrideSec: 2,
		AlarmAfter: 2, PositiveLabel: LabelAF}
}

// runServed pushes the signals through a serve.Server on the given backend
// (nil = in-process registry) and returns each stream's applied events.
func runServed(t *testing.T, m *ServeModel, backend exec.Backend, signals [][]float64) [][]edge.Event {
	t.Helper()
	rt := compss.New(compss.Config{Workers: 2, Backend: backend})
	s, err := serve.New(rt, serve.Config{
		Window:       serveWindowConfig(),
		Score:        ServeScorer(rt.Main(), m),
		MaxBatch:     4, // force cross-stream micro-batches
		MaxDelay:     2 * time.Millisecond,
		StreamBuffer: 1 << 20, // parity requires every window scored
		RecordEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chunks := []int{37, 450} // different ingest chunking per stream
	streams := make([]*serve.Stream, len(signals))
	for i := range signals {
		if streams[i], err = s.Admit(); err != nil {
			t.Fatal(err)
		}
	}
	for i, sig := range signals {
		chunk := chunks[i%len(chunks)]
		for off := 0; off < len(sig); off += chunk {
			end := min(off+chunk, len(sig))
			if err := streams[i].Push(sig[off:end]...); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Flush()
	s.WaitIdle()
	out := make([][]edge.Event, len(streams))
	for i, st := range streams {
		out[i] = st.Events()
	}
	if metrics := s.Metrics(); metrics.Shed != 0 || metrics.ScoreErrors != 0 {
		t.Fatalf("parity run shed or errored windows: %+v", metrics)
	}
	return out
}

// TestServeRemoteParityBitIdentical is the serving acceptance test: the
// always-on path — micro-batched scoring through registered exec bodies,
// in-process or across real worker processes — must produce events
// bit-identical to the synchronous batch edge.Run on the same signals and
// model.
func TestServeRemoteParityBitIdentical(t *testing.T) {
	m := trainServeModel(t)
	signals := serveTestSignals()
	cfg := serveWindowConfig()
	featurize, classify := m.Edge()
	baseline := make([][]edge.Event, len(signals))
	for i, sig := range signals {
		events, _, err := edge.Run(cfg, featurize, classify, sig)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = events
	}
	// Every stream must see at least one alarm for the parity claim to
	// mean anything.
	for i, events := range baseline {
		alarmed := false
		for _, e := range events {
			alarmed = alarmed || e.Alarm
		}
		if !alarmed {
			t.Fatalf("baseline stream %d raised no alarm — test signals too easy or model broken", i)
		}
	}

	variants := []struct {
		name string
		cfg  *exec.LoopbackConfig
	}{
		{"local", nil},
		{"refs-p2p", &exec.LoopbackConfig{Workers: 2, Slots: 1}},
		{"no-cache", &exec.LoopbackConfig{Workers: 2, Slots: 1, CacheMB: -1}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var backend exec.Backend
			if v.cfg != nil {
				b, err := exec.SpawnLoopback(*v.cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				backend = b
			}
			got := runServed(t, m, backend, signals)
			for i := range signals {
				if !reflect.DeepEqual(got[i], baseline[i]) {
					t.Fatalf("%s: stream %d events differ from edge.Run (%d vs %d events)",
						v.name, i, len(got[i]), len(baseline[i]))
				}
			}
		})
	}
}
