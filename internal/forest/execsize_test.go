package forest

import (
	"testing"

	"taskml/internal/mat"
)

// A value is admitted to the exec future cache only when its size is known.
func TestExecValueBytesPositive(t *testing.T) {
	leaf := &Node{Leaf: true, Probs: []float64{1}}
	for name, n := range map[string]int64{
		"TrainSet":       trainSet(t, mat.New(2, 2), []int{0, 1}).ExecValueBytes(),
		"Node":           (&Node{Feature: 1, Threshold: 0.5, Left: leaf, Right: leaf}).ExecValueBytes(),
		"SplitOut split": (&SplitOut{Split: Split{Found: true, Left: []int{1, 2}, Right: []int{3}}}).ExecValueBytes(),
		"SplitOut leaf":  (&SplitOut{Leaf: leaf}).ExecValueBytes(),
	} {
		if n <= 0 {
			t.Errorf("%s size = %d, want positive (else never cached)", name, n)
		}
	}
}

// The cache bound covers what a resident TrainSet really holds: X and Y,
// and the rank table beside them — at least four bytes a cell for the ranks
// and eight a distinct value.
func TestTrainSetBytesCountRankTable(t *testing.T) {
	ts, _ := splitBenchNode(t, 0)
	distinct := 0
	for f := 0; f < ts.X.Cols; f++ {
		distinct += len(ts.ranks.vals[f])
	}
	data := int64(len(ts.X.Data))*8 + int64(len(ts.Y))*8
	if got, table := ts.ExecValueBytes(), int64(len(ts.X.Data))*4+int64(distinct)*8; got < data+table {
		t.Fatalf("ExecValueBytes = %d, want at least %d for X and Y and %d for the rank table", got, data, table)
	}
}

func TestNodeCloneDeep(t *testing.T) {
	n := &Node{
		Feature: 1, Threshold: 0.5,
		Left:  &Node{Leaf: true, Probs: []float64{0.2, 0.8}},
		Right: &Node{Leaf: true, Probs: []float64{0.9, 0.1}},
	}
	cl := n.Clone()
	cl.Left.Probs[0] = 99
	cl.Right = nil
	if n.Left.Probs[0] != 0.2 || n.Right == nil {
		t.Fatal("subtree clone shares memory with original")
	}
}
