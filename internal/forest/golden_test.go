package forest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taskml/internal/compss"
	"taskml/internal/dsarray"
)

var update = flag.Bool("update", false, "rewrite testdata/forest.golden")

var forestGolden = filepath.Join("testdata", "forest.golden")

// treeHash hashes a tree field for field in the codec's preorder (codec.go):
// each node's flags, its probabilities' bits, its feature and its
// threshold's bits, then its children. Two trees hash alike only if every
// bit the wire would carry is alike.
func treeHash(n *Node) string {
	h := sha256.New()
	var walk func(n *Node)
	word := func(x uint64) { _ = binary.Write(h, binary.LittleEndian, x) }
	walk = func(n *Node) {
		if n == nil {
			word(0)
			return
		}
		flags := nodePresent
		if n.Leaf {
			flags |= nodeLeaf
		}
		if n.Probs != nil {
			flags |= nodeProbs
		}
		if n.Feature != 0 || math.Float64bits(n.Threshold) != 0 {
			flags |= nodeSplit
		}
		if n.Left != nil {
			flags |= nodeLeft
		}
		if n.Right != nil {
			flags |= nodeRight
		}
		word(uint64(flags))
		word(uint64(len(n.Probs)))
		for _, p := range n.Probs {
			word(math.Float64bits(p))
		}
		word(uint64(n.Feature))
		word(math.Float64bits(n.Threshold))
		if n.Left != nil {
			walk(n.Left)
		}
		if n.Right != nil {
			walk(n.Right)
		}
	}
	walk(n)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeForest fits and applies one forest on a real runtime and writes what
// the seeds decide: every tree, every rf_* task's declared cost (the child
// estimates come from the cost-estimate draw) and the predicted labels.
func writeForest(t *testing.T, b *bytes.Buffer, seed int64) {
	t.Helper()
	x, y := blobs(rand.New(rand.NewSource(53)), 160, 9, 1.5)
	rt := compss.New(compss.Config{Workers: 2})
	xa := dsarray.FromMatrix(rt.Main(), x, 40, 9)
	ya := dsarray.FromLabels(rt.Main(), y, 40)
	f := &RandomForest{Params: Params{NEstimators: 6, DistrDepth: 2, Tree: TreeParams{MaxDepth: 7}, Seed: seed}}
	if err := f.Fit(xa, ya); err != nil {
		t.Fatal(err)
	}
	pred, err := f.Predict(xa)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := dsarray.CollectLabels(pred)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := f.Trees(rt.Main())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== seed %d\n", seed)
	for i, tr := range trees {
		fmt.Fprintf(b, "tree %d %s\n", i, treeHash(tr))
	}
	for _, task := range rt.Graph().Tasks() {
		if strings.HasPrefix(task.Name, "rf_") {
			fmt.Fprintf(b, "task %d %s %v\n", task.ID, task.Name, task.Cost)
		}
	}
	fmt.Fprintf(b, "predict %v\n", labels)
}

// TestForestGolden pins the trees and the cost estimates that the forest's
// seeds give, bit for bit, for a seed of 0 (math/rand's substitute seed), a
// positive one and a negative one. A change to how the forest draws its
// random numbers must leave the file as it is; run with -update only when
// what a seed grows changes on purpose.
func TestForestGolden(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range []int64{0, 53, -(1 << 40) + 3} {
		writeForest(t, &got, seed)
	}
	if *update {
		if err := os.WriteFile(forestGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(forestGolden)
	if errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%v (run with -update to create it)", err)
	} else if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gotLines), len(wantLines)) {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d of %s differs:\n got  %.200s\n want %.200s", i+1, forestGolden, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines written, %s has %d", len(gotLines)-1, forestGolden, len(wantLines)-1)
	}
}
