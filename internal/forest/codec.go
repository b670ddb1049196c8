package forest

import (
	"errors"
	"fmt"
	"math"

	"taskml/internal/exec"
	"taskml/internal/mat"
)

// Binary wire forms of the forest task values (exec.RegisterCodec, see
// tasks.go): fields in declaration order, a presence byte before every
// pointer, matrices and float slices as raw bits — so remote training stays
// bit-identical to local — and index slices as varints. Every form is
// canonical: one value, one encoding, and the decoders refuse any other.

func encodeTrainSet(e *exec.Encoder, t *TrainSet) {
	e.Bool(t != nil)
	if t == nil {
		return
	}
	e.Bool(t.X != nil)
	if t.X != nil {
		e.Dense(t.X)
	}
	e.Ints(t.Y)
}

func decodeTrainSet(d *exec.Decoder) *TrainSet {
	if !d.Bool() {
		return nil
	}
	var x *mat.Dense
	if d.Bool() {
		x = d.Dense()
	}
	t, err := NewTrainSet(x, d.Ints()) // the rank table never travels
	if err != nil {
		d.Fail(err)
	}
	return t
}

// A node opens with one flags byte saying which of its fields follow, so a
// leaf costs its distribution and a split its feature, threshold and
// children — a forest is mostly small nodes, and trees are most of what the
// random-forest tasks send each other.
const (
	nodePresent byte = 1 << iota // 0 encodes a nil *Node
	nodeLeaf
	nodeProbs // Probs is non-nil
	nodeSplit // Feature or Threshold is not all zero bits
	nodeLeft
	nodeRight
)

func encodeNode(e *exec.Encoder, n *Node) {
	if n == nil {
		e.Int(0)
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
	e.Int(int(flags))
	if flags&nodeProbs != 0 {
		e.Float64s(n.Probs)
	}
	if flags&nodeSplit != 0 {
		e.Int(n.Feature)
		e.Float64(n.Threshold)
	}
	if n.Left != nil {
		encodeNode(e, n.Left)
	}
	if n.Right != nil {
		encodeNode(e, n.Right)
	}
}

func decodeNode(d *exec.Decoder) *Node {
	flags := d.Int()
	if flags == 0 || !d.Nest() {
		return nil
	}
	defer d.Unnest()
	if flags < 0 || flags >= int(nodeRight)<<1 || flags&int(nodePresent) == 0 {
		d.Fail(fmt.Errorf("forest: node flags %#x", flags))
		return nil
	}
	n := &Node{Leaf: flags&int(nodeLeaf) != 0}
	if flags&int(nodeProbs) != 0 {
		if n.Probs = d.Float64s(); n.Probs == nil && d.Err() == nil {
			d.Fail(errors.New("forest: node flags promise a distribution, nil follows"))
		}
	}
	if flags&int(nodeSplit) != 0 {
		n.Feature, n.Threshold = d.Int(), d.Float64()
		if n.Feature == 0 && math.Float64bits(n.Threshold) == 0 && d.Err() == nil {
			d.Fail(errors.New("forest: node flags promise a split, zeros follow"))
		}
	}
	if flags&int(nodeLeft) != 0 {
		if n.Left = decodeNode(d); n.Left == nil && d.Err() == nil {
			d.Fail(errors.New("forest: node flags promise a left child, nil follows"))
		}
	}
	if flags&int(nodeRight) != 0 {
		if n.Right = decodeNode(d); n.Right == nil && d.Err() == nil {
			d.Fail(errors.New("forest: node flags promise a right child, nil follows"))
		}
	}
	return n
}

func encodeSplitOut(e *exec.Encoder, s *SplitOut) {
	e.Bool(s != nil)
	if s == nil {
		return
	}
	encodeNode(e, s.Leaf)
	e.Bool(s.Split.Found)
	e.Int(s.Split.Feature)
	e.Float64(s.Split.Threshold)
	e.Ints(s.Split.Left)
	e.Ints(s.Split.Right)
}

func decodeSplitOut(d *exec.Decoder) *SplitOut {
	if !d.Bool() {
		return nil
	}
	return &SplitOut{Leaf: decodeNode(d), Split: Split{
		Found: d.Bool(), Feature: d.Int(), Threshold: d.Float64(),
		Left: d.Ints(), Right: d.Ints(),
	}}
}

func encodeTreeParams(e *exec.Encoder, p TreeParams) {
	e.Int(p.MaxDepth)
	e.Int(p.MinSamplesSplit)
	e.Int(p.MaxFeatures)
}

func decodeTreeParams(d *exec.Decoder) TreeParams {
	return TreeParams{MaxDepth: d.Int(), MinSamplesSplit: d.Int(), MaxFeatures: d.Int()}
}
