package eddl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"taskml/internal/mat"
	"taskml/internal/par"
)

// Layer is one differentiable stage. Forward caches whatever Backward
// needs; Backward receives dLoss/dOut and returns dLoss/dIn, accumulating
// parameter gradients internally.
//
// Memory contract: the matrices Forward and Backward return are
// layer-owned scratch drawn from mat.Scratch — valid until the layer's
// next Forward/Backward call or the network's ReleaseScratch, whichever
// comes first — and the stateless ReLU may rewrite the grad it is handed
// in place and return it. Callers that need a result to
// outlive the training loop must Clone it; trainable parameters (Params)
// are never pooled.
type Layer interface {
	Forward(x *mat.Dense) *mat.Dense
	Backward(grad *mat.Dense) *mat.Dense
	// Params returns the trainable tensors (nil for stateless layers).
	Params() []*Param
	// FwdFlops is the forward cost per sample, for the virtual-time model.
	FwdFlops() float64
	// OutCols is the flattened output width given the configured input.
	OutCols() int
}

// scratchHolder is implemented by layers that keep pooled scratch between
// steps; Network.ReleaseScratch fans out through it.
type scratchHolder interface{ releaseScratch() }

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	W    *mat.Dense
	Grad *mat.Dense
}

func newParam(r, c int) *Param {
	return &Param{W: mat.New(r, c), Grad: mat.New(r, c)}
}

// Conv1D is a 1-D convolution over single- or multi-channel sequences laid
// out channel-major: column ci*L + t holds channel ci at time t.
type Conv1D struct {
	InChannels, OutChannels int
	InLen, Kernel, Stride   int

	w, b  *Param
	lastX *mat.Dense

	out, dx *mat.Dense // pooled scratch reused across batches
}

// NewConv1D builds the layer with He-initialised weights.
func NewConv1D(inCh, outCh, inLen, kernel, stride int, rng *rand.Rand) *Conv1D {
	if stride < 1 {
		stride = 1
	}
	if kernel > inLen {
		panic(fmt.Sprintf("eddl: kernel %d exceeds input length %d", kernel, inLen))
	}
	c := &Conv1D{InChannels: inCh, OutChannels: outCh, InLen: inLen, Kernel: kernel, Stride: stride}
	c.w = newParam(outCh, inCh*kernel)
	c.b = newParam(1, outCh)
	scale := math.Sqrt(2 / float64(inCh*kernel))
	for i := range c.w.W.Data {
		c.w.W.Data[i] = rng.NormFloat64() * scale
	}
	return c
}

// OutLen is the output sequence length.
func (c *Conv1D) OutLen() int { return (c.InLen-c.Kernel)/c.Stride + 1 }

// OutCols implements Layer.
func (c *Conv1D) OutCols() int { return c.OutChannels * c.OutLen() }

// Forward implements Layer.
func (c *Conv1D) Forward(x *mat.Dense) *mat.Dense {
	if x.Cols != c.InChannels*c.InLen {
		panic(fmt.Sprintf("eddl: conv input %d cols, want %d", x.Cols, c.InChannels*c.InLen))
	}
	c.lastX = x
	lout := c.OutLen()
	out := mat.Scratch.GrowDense(&c.out, x.Rows, c.OutChannels*lout)
	// Samples are independent (disjoint output rows, read-only x and
	// weights), so the batch dimension parallelises over internal/par; the
	// window product is the shared unrolled Dot micro-kernel.
	grain := 1 + (1<<14)/(int(c.FwdFlops())+1)
	par.For(x.Rows, grain, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			xr := x.Row(bi)
			or := out.Row(bi)
			for co := 0; co < c.OutChannels; co++ {
				wr := c.w.W.Row(co)
				bias := c.b.W.At(0, co)
				for t := 0; t < lout; t++ {
					s := bias
					base := t * c.Stride
					for ci := 0; ci < c.InChannels; ci++ {
						xoff := ci*c.InLen + base
						woff := ci * c.Kernel
						s += mat.Dot(wr[woff:woff+c.Kernel], xr[xoff:])
					}
					or[co*lout+t] = s
				}
			}
		}
	})
	return out
}

// Backward implements Layer.
func (c *Conv1D) Backward(grad *mat.Dense) *mat.Dense {
	lout := c.OutLen()
	dx := mat.Scratch.GrowDense(&c.dx, c.lastX.Rows, c.lastX.Cols)
	for bi := 0; bi < grad.Rows; bi++ {
		gr := grad.Row(bi)
		xr := c.lastX.Row(bi)
		dxr := dx.Row(bi)
		for co := 0; co < c.OutChannels; co++ {
			wr := c.w.W.Row(co)
			gwr := c.w.Grad.Row(co)
			var db float64
			for t := 0; t < lout; t++ {
				g := gr[co*lout+t]
				if g == 0 {
					continue
				}
				db += g
				base := t * c.Stride
				for ci := 0; ci < c.InChannels; ci++ {
					xoff := ci*c.InLen + base
					woff := ci * c.Kernel
					mat.Axpy(g, xr[xoff:xoff+c.Kernel], gwr[woff:])
					mat.Axpy(g, wr[woff:woff+c.Kernel], dxr[xoff:])
				}
			}
			c.b.Grad.Set(0, co, c.b.Grad.At(0, co)+db)
		}
	}
	return dx
}

// Params implements Layer.
func (c *Conv1D) Params() []*Param { return []*Param{c.w, c.b} }

func (c *Conv1D) releaseScratch() {
	mat.Scratch.ReleaseDense(&c.out)
	mat.Scratch.ReleaseDense(&c.dx)
}

// FwdFlops implements Layer.
func (c *Conv1D) FwdFlops() float64 {
	return 2 * float64(c.OutChannels) * float64(c.OutLen()) * float64(c.InChannels) * float64(c.Kernel)
}

// Dense is a fully connected layer.
type Dense struct {
	In, Out int
	w, b    *Param
	lastX   *mat.Dense

	out, dx *mat.Dense // pooled scratch reused across batches
}

// NewDense builds the layer with He-initialised weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, w: newParam(in, out), b: newParam(1, out)}
	scale := math.Sqrt(2 / float64(in))
	for i := range d.w.W.Data {
		d.w.W.Data[i] = rng.NormFloat64() * scale
	}
	return d
}

// OutCols implements Layer.
func (d *Dense) OutCols() int { return d.Out }

// Forward implements Layer.
func (d *Dense) Forward(x *mat.Dense) *mat.Dense {
	if x.Cols != d.In {
		panic(fmt.Sprintf("eddl: dense input %d cols, want %d", x.Cols, d.In))
	}
	d.lastX = x
	out := mat.Scratch.GrowDense(&d.out, x.Rows, d.Out)
	mat.MulAdd(out, x, d.w.W) // out was zeroed: this is out = x·w
	for bi := 0; bi < out.Rows; bi++ {
		row := out.Row(bi)
		for j := range row {
			row[j] += d.b.W.At(0, j)
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *mat.Dense) *mat.Dense {
	mat.MulAtBAdd(d.w.Grad, d.lastX, grad) // accumulate xᵀ·grad without a temporary
	for bi := 0; bi < grad.Rows; bi++ {
		row := grad.Row(bi)
		for j, g := range row {
			d.b.Grad.Set(0, j, d.b.Grad.At(0, j)+g)
		}
	}
	dx := mat.Scratch.GrowDense(&d.dx, grad.Rows, d.In)
	mat.MulABtAdd(dx, grad, d.w.W) // dx was zeroed: this is dx = grad·wᵀ
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

func (d *Dense) releaseScratch() {
	mat.Scratch.ReleaseDense(&d.out)
	mat.Scratch.ReleaseDense(&d.dx)
}

// FwdFlops implements Layer.
func (d *Dense) FwdFlops() float64 { return 2 * float64(d.In) * float64(d.Out) }

// ReLU is the rectifier activation.
type ReLU struct {
	cols int
	mask []bool
	out  *mat.Dense // pooled scratch reused across batches
}

// NewReLU builds the activation for a given width.
func NewReLU(cols int) *ReLU { return &ReLU{cols: cols} }

// OutCols implements Layer.
func (r *ReLU) OutCols() int { return r.cols }

// Forward implements Layer.
func (r *ReLU) Forward(x *mat.Dense) *mat.Dense {
	out := mat.Scratch.GrowDense(&r.out, x.Rows, x.Cols)
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range x.Data {
		if v < 0 {
			r.mask[i] = false
		} else {
			out.Data[i] = v
			r.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer. The masked entries are zeroed in grad itself
// (see the Layer memory contract): the upstream layer's grad scratch is
// dead after this call, so clamping in place saves the copy.
func (r *ReLU) Backward(grad *mat.Dense) *mat.Dense {
	for i := range grad.Data {
		if !r.mask[i] {
			grad.Data[i] = 0
		}
	}
	return grad
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

func (r *ReLU) releaseScratch() { mat.Scratch.ReleaseDense(&r.out) }

// FwdFlops implements Layer.
func (r *ReLU) FwdFlops() float64 { return float64(r.cols) }

// Network is a sequential stack of layers with a softmax cross-entropy
// head.
type Network struct {
	Layers  []Layer
	Classes int

	// Training scratch, drawn from mat.Scratch and reused across batches
	// and epochs; weights and gradients are never pooled. ReleaseScratch
	// hands everything back to the pool.
	ceGrad *mat.Dense // softmax cross-entropy gradient
	bx     *mat.Dense // mini-batch feature rows
	by     []int      // mini-batch labels

	plist []*Param // cached flattened parameter list (layers are fixed)
}

// paramList returns the network's parameters flattened across layers,
// computed once — per-batch Params() calls would allocate a small slice per
// layer per step. Layers never change after construction.
func (n *Network) paramList() []*Param {
	if n.plist == nil {
		for _, l := range n.Layers {
			n.plist = append(n.plist, l.Params()...)
		}
	}
	return n.plist
}

// ReleaseScratch returns every pooled buffer the network and its layers
// hold — forward activations, backward gradients, the mini-batch staging
// buffers — to mat.Scratch, so the next worker's training task can reuse
// them. Weights are untouched. Call it when a network is done training
// (the distributed trainer does, at the end of every cnn_train task body);
// using the network again afterwards is safe and simply re-draws scratch.
func (n *Network) ReleaseScratch() {
	for _, l := range n.Layers {
		if s, ok := l.(scratchHolder); ok {
			s.releaseScratch()
		}
	}
	mat.Scratch.ReleaseDense(&n.ceGrad)
	mat.Scratch.ReleaseDense(&n.bx)
	n.by = nil
}

// NewCNN builds the paper's architecture for a 1-D input of length
// inputLen: Conv1D(filters)–ReLU–Conv1D(filters)–ReLU–Dense(hidden)–ReLU–
// Dense(classes). kernel and stride shape the convolutions.
func NewCNN(inputLen, filters, kernel, stride, hidden, classes int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	c1 := NewConv1D(1, filters, inputLen, kernel, stride, rng)
	c2 := NewConv1D(filters, filters, c1.OutLen(), kernel, stride, rng)
	flat := c2.OutCols()
	d1 := NewDense(flat, hidden, rng)
	d2 := NewDense(hidden, classes, rng)
	return &Network{
		Layers: []Layer{
			c1, NewReLU(c1.OutCols()),
			c2, NewReLU(c2.OutCols()),
			d1, NewReLU(hidden),
			d2,
		},
		Classes: classes,
	}
}

// Forward runs the stack and returns the logits.
func (n *Network) Forward(x *mat.Dense) *mat.Dense {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// softmaxCE computes per-batch mean loss and the logits gradient into a
// fresh matrix (softmaxCEInto without the buffer reuse; tests and
// one-shot callers).
func softmaxCE(logits *mat.Dense, y []int) (float64, *mat.Dense) {
	grad := mat.New(logits.Rows, logits.Cols)
	return softmaxCEInto(grad, logits, y), grad
}

// softmaxCEInto computes the per-batch mean loss, writing the logits
// gradient into grad (pre-shaped to logits' shape, contents overwritten).
// This is the in-place variant the training loops feed with pooled
// scratch.
func softmaxCEInto(grad, logits *mat.Dense, y []int) float64 {
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic(fmt.Sprintf("eddl: softmaxCEInto grad %dx%d, want %dx%d", grad.Rows, grad.Cols, logits.Rows, logits.Cols))
	}
	var loss float64
	for bi := 0; bi < logits.Rows; bi++ {
		row := logits.Row(bi)
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		g := grad.Row(bi)
		for j, v := range row {
			e := math.Exp(v - maxv)
			g[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range g {
			g[j] *= inv
		}
		loss += -math.Log(math.Max(g[y[bi]], 1e-15))
		g[y[bi]] -= 1
	}
	invB := 1 / float64(logits.Rows)
	mat.ScaleInPlace(grad, invB)
	return loss * invB
}

// batchStep stages the mini-batch selected by idx into the network's
// pooled staging buffers, zeroes the parameter gradients, and runs one
// forward/backward pass, leaving the accumulated gradients in Params. It
// returns the batch loss. The whole step is allocation-free at steady
// state: the batch matrix, every activation and every gradient matrix is
// layer- or network-owned scratch reused across batches and epochs.
func (n *Network) batchStep(x *mat.Dense, y []int, idx []int) float64 {
	bx := mat.Scratch.GrowDense(&n.bx, len(idx), x.Cols)
	mat.TakeRowsInto(bx, x, idx)
	if cap(n.by) < len(idx) {
		n.by = make([]int, len(idx))
	}
	n.by = n.by[:len(idx)]
	for i, r := range idx {
		n.by[i] = y[r]
	}
	for _, p := range n.paramList() {
		clear(p.Grad.Data)
	}
	logits := n.Forward(bx)
	grad := mat.Scratch.GrowDense(&n.ceGrad, logits.Rows, logits.Cols)
	loss := softmaxCEInto(grad, logits, n.by)
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return loss
}

// TrainEpoch runs one epoch of mini-batch SGD and returns the mean loss.
func (n *Network) TrainEpoch(x *mat.Dense, y []int, lr float64, batch int, rng *rand.Rand) (float64, error) {
	if x.Rows != len(y) {
		return 0, fmt.Errorf("eddl: %d rows vs %d labels", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return 0, errors.New("eddl: empty training set")
	}
	if batch <= 0 {
		batch = 32
	}
	order := rng.Perm(x.Rows)
	var total float64
	batches := 0
	for at := 0; at < len(order); at += batch {
		end := at + batch
		if end > len(order) {
			end = len(order)
		}
		total += n.batchStep(x, y, order[at:end])
		for _, p := range n.paramList() {
			for i, g := range p.Grad.Data {
				p.W.Data[i] -= float64(lr * g)
			}
		}
		batches++
	}
	return total / float64(batches), nil
}

// Predict returns the argmax class per row.
func (n *Network) Predict(x *mat.Dense) []int {
	logits := n.Forward(x)
	out := make([]int, x.Rows)
	for bi := 0; bi < x.Rows; bi++ {
		row := logits.Row(bi)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[bi] = best
	}
	return out
}

// FwdFlopsPerSample sums the stack's forward cost, the basis of the
// GPU-time model.
func (n *Network) FwdFlopsPerSample() float64 {
	var f float64
	for _, l := range n.Layers {
		f += l.FwdFlops()
	}
	return f
}

// Weights returns deep copies of all parameter tensors in layer order.
func (n *Network) Weights() []*mat.Dense {
	var out []*mat.Dense
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			out = append(out, p.W.Clone())
		}
	}
	return out
}

// SetWeights installs parameter tensors previously obtained from Weights.
func (n *Network) SetWeights(ws []*mat.Dense) error {
	i := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			if i >= len(ws) {
				return errors.New("eddl: too few weight tensors")
			}
			if ws[i].Rows != p.W.Rows || ws[i].Cols != p.W.Cols {
				return fmt.Errorf("eddl: weight %d shape %dx%d, want %dx%d", i, ws[i].Rows, ws[i].Cols, p.W.Rows, p.W.Cols)
			}
			copy(p.W.Data, ws[i].Data)
			i++
		}
	}
	if i != len(ws) {
		return errors.New("eddl: too many weight tensors")
	}
	return nil
}

// WeightBytes is the serialized parameter size, used by the GPU
// communication model.
func (n *Network) WeightBytes() int64 {
	var b int64
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			b += int64(len(p.W.Data) * 8)
		}
	}
	return b
}

// MergeWeights averages several weight lists — the per-epoch merge of the
// paper's data-parallel scheme ("the weights of the neural network in each
// worker are retrieved and they are merged and used in the next epoch").
func MergeWeights(sets [][]*mat.Dense) ([]*mat.Dense, error) {
	if len(sets) == 0 {
		return nil, errors.New("eddl: no weight sets to merge")
	}
	out := make([]*mat.Dense, len(sets[0]))
	for i := range out {
		out[i] = sets[0][i].Clone()
	}
	for _, set := range sets[1:] {
		if len(set) != len(out) {
			return nil, errors.New("eddl: weight set arity mismatch")
		}
		for i, w := range set {
			if w.Rows != out[i].Rows || w.Cols != out[i].Cols {
				return nil, fmt.Errorf("eddl: weight %d shape mismatch", i)
			}
			mat.AddInPlace(out[i], w)
		}
	}
	inv := 1 / float64(len(sets))
	for _, w := range out {
		mat.ScaleInPlace(w, inv)
	}
	return out, nil
}
