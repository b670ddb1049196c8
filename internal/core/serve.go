package core

import (
	"errors"
	"fmt"

	"taskml/internal/compss"
	"taskml/internal/ecg"
	"taskml/internal/edge"
	"taskml/internal/exec"
	"taskml/internal/forest"
	"taskml/internal/serve"
)

// ServeModel is the deployable inference bundle behind the serving layer:
// the feature pipeline configuration plus a trained forest, wired as
// registered task bodies so micro-batched scoring rides the exec backend
// (and its worker future cache) like any other task.
type ServeModel struct {
	// Feat is the window feature pipeline (must match training).
	Feat FeatureConfig
	// Trees is the deployed forest (forest.RandomForest.Trees).
	Trees []*forest.Node
}

// Featurize converts one raw analysis window into the model's feature
// vector — the edge.Featurizer shape.
func (m *ServeModel) Featurize(window []float64, fs float64) ([]float64, error) {
	return m.Feat.Features(ecg.Record{Signal: window, Fs: fs})
}

// Classify majority-votes the forest over one feature vector, breaking
// ties toward LabelAF (a monitor prefers a false alarm to a missed
// episode) — identical to the edgemonitor example's deployed classifier.
func (m *ServeModel) Classify(feats []float64) (int, error) {
	if len(m.Trees) == 0 {
		return 0, errors.New("core: ServeModel has no trees")
	}
	probs := make([]float64, 2)
	for _, t := range m.Trees {
		for c, p := range t.PredictProbs(feats) {
			if c < len(probs) {
				probs[c] += p
			}
		}
	}
	if probs[LabelAF] >= probs[LabelNormal] {
		return LabelAF, nil
	}
	return LabelNormal, nil
}

// Edge returns the model as the batch path's (edge.Featurizer,
// edge.Classifier) pair — the parity tests run edge.Run with exactly these.
func (m *ServeModel) Edge() (edge.Featurizer, edge.Classifier) {
	return m.Featurize, edge.ClassifierFunc(m.Classify)
}

// Clone returns a deep copy (trees included).
func (m *ServeModel) Clone() *ServeModel {
	if m == nil {
		return nil
	}
	out := &ServeModel{Feat: m.Feat, Trees: make([]*forest.Node, len(m.Trees))}
	for i, t := range m.Trees {
		out.Trees[i] = t.Clone()
	}
	return out
}

// ExecValueBytes reports the resident size (dominated by the trees) and so
// opts the model into the worker future cache: the "serve_model" output
// stays resident per worker and every "serve_score" batch reads it through
// a local reference instead of re-shipping the forest.
func (m *ServeModel) ExecValueBytes() int64 {
	n := int64(64)
	for _, t := range m.Trees {
		n += t.ExecValueBytes()
	}
	return n
}

// encodeServeModel / decodeServeModel are the model's binary wire form
// (exec.RegisterCodec): the feature configuration field by field, then the
// trees as tagged values so each rides forest's own node codec.
func encodeServeModel(e *exec.Encoder, m *ServeModel) {
	e.Bool(m != nil)
	if m == nil {
		return
	}
	e.Float64(m.Feat.PadSec)
	e.Int(m.Feat.Window)
	e.Int(m.Feat.Overlap)
	e.Float64(m.Feat.MaxFreqHz)
	e.Int(m.Feat.TimePool)
	e.Bool(m.Trees != nil)
	e.Len(len(m.Trees))
	for _, t := range m.Trees {
		e.Value(t)
	}
}

func decodeServeModel(d *exec.Decoder) *ServeModel {
	if !d.Bool() {
		return nil
	}
	m := &ServeModel{Feat: FeatureConfig{
		PadSec: d.Float64(), Window: d.Int(), Overlap: d.Int(),
		MaxFreqHz: d.Float64(), TimePool: d.Int(),
	}}
	hasTrees := d.Bool()
	n := d.Len(8) // a pointer per tree, and no tagged node is that short
	if hasTrees {
		m.Trees = make([]*forest.Node, 0, n)
	} else if n != 0 {
		d.Fail(fmt.Errorf("core: nil tree list of length %d", n))
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		t, ok := d.Value().(*forest.Node)
		if !ok && d.Err() == nil {
			d.Fail(fmt.Errorf("core: ServeModel tree %d is not a *forest.Node", i))
		}
		m.Trees = append(m.Trees, t)
	}
	return m
}

func init() {
	exec.RegisterCodec(encodeServeModel, decodeServeModel)

	// serve_model(model) publishes the deployed model as a task output so
	// scoring batches take it as a future: on a remote backend the forest
	// ships to each worker once and is a cache reference afterwards.
	// Returns a fresh clone — bodies must not alias their arguments.
	exec.Register("serve_model", func(args []any) (any, error) {
		m, ok := args[0].(*ServeModel)
		if !ok {
			return nil, fmt.Errorf("serve_model: arg 0 is %T, want *ServeModel", args[0])
		}
		return m.Clone(), nil
	})

	// serve_score(model, windows, fs) labels one micro-batch of analysis
	// windows, in order — the registered body behind serve.Scorer.
	exec.Register("serve_score", func(args []any) (any, error) {
		m, ok := args[0].(*ServeModel)
		if !ok {
			return nil, fmt.Errorf("serve_score: arg 0 is %T, want *ServeModel", args[0])
		}
		windows, ok := args[1].([][]float64)
		if !ok {
			return nil, fmt.Errorf("serve_score: arg 1 is %T, want [][]float64", args[1])
		}
		fs, ok := args[2].(float64)
		if !ok {
			return nil, fmt.Errorf("serve_score: arg 2 is %T, want float64", args[2])
		}
		labels := make([]int, len(windows))
		for i, w := range windows {
			feats, err := m.Featurize(w, fs)
			if err != nil {
				return nil, err
			}
			if labels[i], err = m.Classify(feats); err != nil {
				return nil, err
			}
		}
		return labels, nil
	})
}

// ServeScorer adapts a deployed model to the serving layer: it submits the
// model once through "serve_model" and returns a serve.Scorer whose every
// micro-batch passes that future to "serve_score" — so batches carry only
// their window data, and the forest rides the data plane once per worker.
func ServeScorer(tc *compss.TaskCtx, m *ServeModel) serve.Scorer {
	modelFut := tc.SubmitExec(compss.Opts{Name: "serve_model", Exec: "serve_model"}, m)
	return func(tc *compss.TaskCtx, windows [][]float64, fs float64) *compss.Future {
		return tc.SubmitExec(compss.Opts{Name: "serve_score", Exec: "serve_score"},
			modelFut, windows, fs)
	}
}
