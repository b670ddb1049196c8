package eddl

import (
	"fmt"
	"math/rand"

	"taskml/internal/mat"
)

// MaxPool1D downsamples each channel by taking the maximum over
// non-overlapping windows of Pool samples (channel-major layout, matching
// Conv1D).
type MaxPool1D struct {
	Channels, InLen, Pool int

	argmax []int // flattened (batch × out) winner indices into the input
	rows   int

	out, dx *mat.Dense // pooled scratch reused across batches
}

// NewMaxPool1D builds the layer; pool must divide into at least one window.
func NewMaxPool1D(channels, inLen, pool int) *MaxPool1D {
	if pool < 1 || pool > inLen {
		panic(fmt.Sprintf("eddl: pool %d invalid for length %d", pool, inLen))
	}
	return &MaxPool1D{Channels: channels, InLen: inLen, Pool: pool}
}

// OutLen is the pooled sequence length.
func (m *MaxPool1D) OutLen() int { return m.InLen / m.Pool }

// OutCols implements Layer.
func (m *MaxPool1D) OutCols() int { return m.Channels * m.OutLen() }

// Forward implements Layer.
func (m *MaxPool1D) Forward(x *mat.Dense) *mat.Dense {
	if x.Cols != m.Channels*m.InLen {
		panic(fmt.Sprintf("eddl: pool input %d cols, want %d", x.Cols, m.Channels*m.InLen))
	}
	lout := m.OutLen()
	out := mat.Scratch.GrowDense(&m.out, x.Rows, m.Channels*lout)
	if cap(m.argmax) < x.Rows*out.Cols {
		m.argmax = make([]int, x.Rows*out.Cols)
	}
	m.argmax = m.argmax[:x.Rows*out.Cols]
	m.rows = x.Rows
	for bi := 0; bi < x.Rows; bi++ {
		xr := x.Row(bi)
		or := out.Row(bi)
		for c := 0; c < m.Channels; c++ {
			for t := 0; t < lout; t++ {
				base := c*m.InLen + t*m.Pool
				best := base
				for k := 1; k < m.Pool; k++ {
					if xr[base+k] > xr[best] {
						best = base + k
					}
				}
				or[c*lout+t] = xr[best]
				m.argmax[bi*out.Cols+c*lout+t] = best
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool1D) Backward(grad *mat.Dense) *mat.Dense {
	dx := mat.Scratch.GrowDense(&m.dx, m.rows, m.Channels*m.InLen)
	for bi := 0; bi < grad.Rows; bi++ {
		gr := grad.Row(bi)
		dr := dx.Row(bi)
		for j, g := range gr {
			dr[m.argmax[bi*grad.Cols+j]] += g
		}
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool1D) Params() []*Param { return nil }

func (m *MaxPool1D) releaseScratch() {
	mat.Scratch.ReleaseDense(&m.out)
	mat.Scratch.ReleaseDense(&m.dx)
}

// FwdFlops implements Layer.
func (m *MaxPool1D) FwdFlops() float64 { return float64(m.Channels * m.InLen) }

// Dropout randomly zeroes a fraction of activations during training and
// scales the survivors (inverted dropout). Prediction paths call Eval()
// first; TrainEpoch switches Train() on.
type Dropout struct {
	Rate float64
	cols int
	rng  *rand.Rand

	training bool
	mask     []bool
	out      *mat.Dense // pooled scratch reused across batches
}

// NewDropout builds the layer for a given width.
func NewDropout(cols int, rate float64, seed int64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("eddl: dropout rate %v outside [0, 1)", rate))
	}
	return &Dropout{Rate: rate, cols: cols, rng: rand.New(rand.NewSource(seed))}
}

// Train enables stochastic dropping.
func (d *Dropout) Train() { d.training = true }

// Eval disables dropping (identity at inference).
func (d *Dropout) Eval() { d.training = false }

// OutCols implements Layer.
func (d *Dropout) OutCols() int { return d.cols }

// Forward implements Layer.
func (d *Dropout) Forward(x *mat.Dense) *mat.Dense {
	if !d.training || d.Rate == 0 {
		return x
	}
	out := mat.Scratch.GrowDense(&d.out, x.Rows, x.Cols)
	if cap(d.mask) < len(out.Data) {
		d.mask = make([]bool, len(out.Data))
	}
	d.mask = d.mask[:len(out.Data)]
	scale := 1 / (1 - d.Rate)
	for i, v := range x.Data {
		if d.rng.Float64() < d.Rate {
			d.mask[i] = false
		} else {
			out.Data[i] = v * scale
			d.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer. Like ReLU, the survivors are rescaled in grad
// itself (see the Layer memory contract).
func (d *Dropout) Backward(grad *mat.Dense) *mat.Dense {
	if !d.training || d.Rate == 0 {
		return grad
	}
	scale := 1 / (1 - d.Rate)
	for i := range grad.Data {
		if d.mask[i] {
			grad.Data[i] *= scale
		} else {
			grad.Data[i] = 0
		}
	}
	return grad
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

func (d *Dropout) releaseScratch() { mat.Scratch.ReleaseDense(&d.out) }

// FwdFlops implements Layer.
func (d *Dropout) FwdFlops() float64 { return float64(d.cols) }

// SGD is a momentum stochastic-gradient-descent optimiser over a network's
// parameters. Momentum 0 reduces to the plain update TrainEpoch applies
// inline.
type SGD struct {
	LR       float64
	Momentum float64

	velocity [][]float64
}

// NewSGD builds the optimiser.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum}
}

// Step applies one update to every parameter from its accumulated gradient
// (gradients are not cleared; callers zero them per batch).
func (o *SGD) Step(n *Network) {
	params := n.paramList()
	if o.velocity == nil {
		o.velocity = make([][]float64, len(params))
		for i, p := range params {
			o.velocity[i] = make([]float64, len(p.W.Data))
		}
	}
	for i, p := range params {
		v := o.velocity[i]
		for j, g := range p.Grad.Data {
			v[j] = float64(o.Momentum*v[j]) - float64(o.LR*g)
			p.W.Data[j] += v[j]
		}
	}
}

// TrainEpochSGD runs one epoch of mini-batch training with the given
// optimiser (TrainEpoch's inline update generalised to momentum), setting
// any Dropout layers to training mode for the duration.
func (n *Network) TrainEpochSGD(x *mat.Dense, y []int, opt *SGD, batch int, rng *rand.Rand) (float64, error) {
	if x.Rows != len(y) {
		return 0, fmt.Errorf("eddl: %d rows vs %d labels", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return 0, fmt.Errorf("eddl: empty training set")
	}
	if batch <= 0 {
		batch = 32
	}
	for _, l := range n.Layers {
		if d, ok := l.(*Dropout); ok {
			d.Train()
			defer d.Eval()
		}
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
		opt.Step(n)
		batches++
	}
	return total / float64(batches), nil
}
