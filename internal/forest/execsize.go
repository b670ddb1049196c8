package forest

// Future-cache participation (see internal/exec cache.go): a value whose
// codec has a size (tasks.go passes these to exec.RegisterCodec) is kept on
// the worker that produced or received it. TrainSet is the payoff — every
// rf_bootstrap of an estimator consumes the same gathered TrainSet, so a
// resident copy on the worker that ran rf_gather turns N full-dataset
// transfers into N references, and since no forest body writes to its
// arguments every one of them reads that one copy.

// ExecValueBytes reports the resident payload size, rank table included:
// with distinct values in every column the table is 1.5× the size of X.
func (t *TrainSet) ExecValueBytes() int64 {
	if t == nil {
		return 8
	}
	n := int64(len(t.Y)+len(t.X.Data))*8 + 32 + int64(len(t.ranks.rank))*4
	n += int64(len(t.ranks.nan)) * (1 + 24) // a NaN flag and a slice header a column
	for _, v := range t.ranks.vals {
		n += int64(len(v)) * 8
	}
	return n
}

// Clone returns a deep copy of the subtree rooted here.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	return &Node{
		Leaf:    n.Leaf,
		Probs:   append([]float64(nil), n.Probs...),
		Feature: n.Feature, Threshold: n.Threshold,
		Left: n.Left.Clone(), Right: n.Right.Clone(),
	}
}

// ExecValueBytes reports the resident payload size of the subtree.
func (n *Node) ExecValueBytes() int64 {
	if n == nil {
		return 8
	}
	return 64 + int64(len(n.Probs))*8 + n.Left.ExecValueBytes() + n.Right.ExecValueBytes()
}

// ExecValueBytes reports the resident payload size.
func (s *SplitOut) ExecValueBytes() int64 {
	if s == nil {
		return 8
	}
	return 64 + int64(len(s.Split.Left)+len(s.Split.Right))*8 + s.Leaf.ExecValueBytes()
}
