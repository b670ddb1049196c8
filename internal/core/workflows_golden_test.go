package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"taskml/internal/eddl"
	"taskml/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/workflows.golden")

var workflowsGolden = filepath.Join("testdata", "workflows.golden")

// goldenInstance is cmd/taskgraph's reduced instance: 160 recordings,
// 40-row blocks, a 5-fold, 3-epoch, 4-worker CNN.
func goldenInstance(t *testing.T) (*Dataset, PipelineConfig) {
	t.Helper()
	ds, err := BuildDataset(DataConfig{
		NNormal: 120, NAF: 40, Seed: 1,
		MinDurSec: 9, MaxDurSec: 12,
		Feature: FeatureConfig{PadSec: 12, Window: 256, MaxFreqHz: 25, TimePool: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, PipelineConfig{
		Seed:      1,
		BlockRows: 40,
		BlockCols: 64,
		CNNTrain:  eddl.TrainConfig{Folds: 5, Epochs: 3, Workers: 4},
	}
}

// writeShape writes what a graph's shape is independent of numbering: its
// critical path and its task count by name.
func writeShape(b *bytes.Buffer, g *graph.Graph) {
	fmt.Fprintf(b, "critical path %v\n", g.CriticalPath())
	counts := g.CountByName()
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "%s %d\n", name, counts[name])
	}
}

// TestWorkflowsGolden pins the task graph of every workflow the figures and
// Table I run: the DOT of each model's training workflow at cmd/taskgraph's
// reduced instance, the DOT of a small cross-validation pass for the three
// classical models, and the shape and DOT of Figure 10's nested CNN, whose
// fold bodies interleave differently from run to run. A change to how a
// workflow is built or recorded must leave the file as it is; run with
// -update only when a workflow changes on purpose.
func TestWorkflowsGolden(t *testing.T) {
	ds, cfg := goldenInstance(t)
	var got bytes.Buffer
	for _, m := range Models {
		rt, err := TrainGraph(m, ds.X, ds.Y, cfg)
		if err != nil {
			t.Fatalf("TrainGraph %s: %v", m, err)
		}
		fmt.Fprintf(&got, "== TrainGraph %s\n%s", m, rt.Graph().DOT(string(m)))
	}
	// A small pass: two folds and a four-tree forest keep the file short.
	cv := cfg
	cv.Folds, cv.RF.NEstimators = 2, 4
	for _, m := range []Model{ModelCSVM, ModelKNN, ModelRF} {
		rep, err := RunCV(m, ds, cv)
		if err != nil {
			t.Fatalf("RunCV %s: %v", m, err)
		}
		fmt.Fprintf(&got, "== RunCV %s\n%s", m, rep.Runtime.Graph().DOT(string(m)))
	}
	rt, err := TrainGraph(ModelCNNNested, ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatalf("TrainGraph cnn-nested: %v", err)
	}
	fmt.Fprintf(&got, "== TrainGraph cnn-nested shape\n")
	writeShape(&got, rt.Graph())
	fmt.Fprintf(&got, "== TrainGraph cnn-nested\n%s", rt.Graph().DOT(string(ModelCNNNested)))

	if *update {
		if err := os.MkdirAll(filepath.Dir(workflowsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workflowsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(workflowsGolden)
	if errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%v (run with -update to create it)", err)
	} else if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gotLines), len(wantLines)) {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d of %s differs:\n got  %.200s\n want %.200s", i+1, workflowsGolden, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines written, %s has %d", len(gotLines)-1, workflowsGolden, len(wantLines)-1)
	}
}
