package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"taskml/internal/mat"
)

// Kernel selects the SVC kernel function.
type Kernel int

const (
	// RBF is the Gaussian radial basis function kernel (the dislib CSVM
	// default).
	RBF Kernel = iota
	// Linear is the plain dot-product kernel.
	Linear
)

// The SMO solver's fixed settings.
const (
	// kktTol is the KKT violation tolerance.
	kktTol = 1e-3
	// maxPasses is the number of consecutive full passes without an update
	// that ends training.
	maxPasses = 5
	// maxIterPerSample caps total alpha updates at maxIterPerSample·n, a
	// safety net.
	maxIterPerSample = 100
)

// SVCParams configures the SMO solver.
type SVCParams struct {
	// C is the soft-margin penalty. Default 1.
	C float64
	// Gamma is the RBF width. 0 selects scikit-learn's "scale":
	// 1 / (d · Var(x)).
	Gamma float64
	// Kernel selects the kernel. Default RBF.
	Kernel Kernel
	// Seed seeds the SMO partner-selection randomness.
	Seed int64
}

func (p SVCParams) withDefaults() SVCParams {
	if p.C == 0 {
		p.C = 1
	}
	return p
}

// SVC is a binary C-support-vector classifier trained with SMO. Labels are
// 0/1 at the API surface and ±1 internally.
type SVC struct {
	Params SVCParams

	// Fitted state: support vectors, their ±1 labels, multipliers and bias.
	SupportX *mat.Dense
	SupportY []float64
	Alphas   []float64
	B        float64
	gamma    float64
}

// ErrNotFitted is returned by prediction before Fit.
var ErrNotFitted = errors.New("svm: model is not fitted")

// effectiveGamma resolves Gamma==0 to scikit-learn's "scale" heuristic.
func effectiveGamma(p SVCParams, x *mat.Dense) float64 {
	if p.Kernel == Linear {
		return 0
	}
	if p.Gamma != 0 {
		return p.Gamma
	}
	// 1 / (n_features * x.var())
	var mean, sq float64
	for _, v := range x.Data {
		mean += v
	}
	mean /= float64(len(x.Data))
	for _, v := range x.Data {
		sq += float64((v - mean) * (v - mean))
	}
	variance := sq / float64(len(x.Data))
	if variance == 0 {
		variance = 1
	}
	return 1 / (float64(x.Cols) * variance)
}

func kernelFn(k Kernel, gamma float64) func(a, b []float64) float64 {
	switch k {
	case Linear:
		return func(a, b []float64) float64 {
			var s float64
			for i, v := range a {
				s += float64(v * b[i])
			}
			return s
		}
	default:
		return func(a, b []float64) float64 {
			var s float64
			for i, v := range a {
				d := v - b[i]
				s += float64(d * d)
			}
			return math.Exp(-gamma * s)
		}
	}
}

// Fit trains the classifier on x (n×d) with 0/1 labels y.
func (m *SVC) Fit(x *mat.Dense, y []int) error {
	if x.Rows != len(y) {
		return fmt.Errorf("svm: %d rows vs %d labels", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return errors.New("svm: empty training set")
	}
	p := m.Params.withDefaults()
	n := x.Rows

	ys := make([]float64, n)
	pos, neg := 0, 0
	for i, l := range y {
		switch l {
		case 1:
			ys[i] = 1
			pos++
		case 0:
			ys[i] = -1
			neg++
		default:
			return fmt.Errorf("svm: label %d not in {0, 1}", l)
		}
	}
	// Single-class degenerate set: constant classifier.
	if pos == 0 || neg == 0 {
		m.SupportX = x.Slice(0, 1, 0, x.Cols)
		m.SupportY = []float64{ys[0]}
		m.Alphas = []float64{0}
		m.B = ys[0]
		m.gamma = effectiveGamma(p, x)
		return nil
	}

	gamma := effectiveGamma(p, x)
	kf := kernelFn(p.Kernel, gamma)

	// Precompute the kernel matrix when affordable; cascade blocks are
	// small by construction (≤ block rows).
	var kmat *mat.Dense
	kij := func(i, j int) float64 { return kf(x.Row(i), x.Row(j)) }
	if n <= 4096 {
		kmat = mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := kf(x.Row(i), x.Row(j))
				kmat.Set(i, j, v)
				kmat.Set(j, i, v)
			}
		}
		kij = kmat.At
	}

	alphas := make([]float64, n)
	errs := make([]float64, n) // E_i = f(x_i) - y_i, with all alphas 0: -y
	for i := range errs {
		errs[i] = -ys[i]
	}
	b := 0.0
	rng := rand.New(rand.NewSource(p.Seed + 1))
	maxIter := maxIterPerSample * n

	iters := 0
	// takeStep attempts the joint optimisation of (alphas[i], alphas[j]);
	// it returns true when it made progress.
	takeStep := func(i, j int) bool {
		if i == j {
			return false
		}
		ei, ej := errs[i], errs[j]
		ai, aj := alphas[i], alphas[j]
		var lo, hi float64
		if ys[i] != ys[j] {
			lo = math.Max(0, aj-ai)
			hi = math.Min(p.C, p.C+aj-ai)
		} else {
			lo = math.Max(0, ai+aj-p.C)
			hi = math.Min(p.C, ai+aj)
		}
		if lo == hi {
			return false
		}
		eta := 2*kij(i, j) - kij(i, i) - kij(j, j)
		if eta >= 0 {
			return false
		}
		ajNew := aj - ys[j]*(ei-ej)/eta
		if ajNew > hi {
			ajNew = hi
		} else if ajNew < lo {
			ajNew = lo
		}
		if math.Abs(ajNew-aj) < 1e-7*(ajNew+aj+1e-7) {
			return false
		}
		aiNew := ai + float64(ys[i]*ys[j]*(aj-ajNew))

		b1 := b - ei - float64(ys[i]*(aiNew-ai)*kij(i, i)) - float64(ys[j]*(ajNew-aj)*kij(i, j))
		b2 := b - ej - float64(ys[i]*(aiNew-ai)*kij(i, j)) - float64(ys[j]*(ajNew-aj)*kij(j, j))
		var bNew float64
		switch {
		case aiNew > 0 && aiNew < p.C:
			bNew = b1
		case ajNew > 0 && ajNew < p.C:
			bNew = b2
		default:
			bNew = (b1 + b2) / 2
		}

		di := ys[i] * (aiNew - ai)
		dj := ys[j] * (ajNew - aj)
		db := bNew - b
		for k := 0; k < n; k++ {
			errs[k] += float64(di*kij(i, k)) + float64(dj*kij(j, k)) + db
		}
		alphas[i], alphas[j], b = aiNew, ajNew, bNew
		iters++
		return true
	}

	// examine applies Platt's second-choice heuristics to a KKT-violating
	// sample: best |E_i - E_j| partner first, then a bounded number of
	// random partners, so a failing pair cannot permanently stall the
	// optimisation. Bounding the fallback (instead of scanning all n)
	// keeps a single examine at O(n) while losing essentially nothing:
	// when dozens of random partners make no progress, the sample is at a
	// boundary the tolerance already accepts.
	const maxFallback = 48
	examine := func(i int) bool {
		ei := errs[i]
		if !((ys[i]*ei < -kktTol && alphas[i] < p.C) || (ys[i]*ei > kktTol && alphas[i] > 0)) {
			return false
		}
		j, best := -1, -1.0
		for cand := 0; cand < n; cand++ {
			if cand == i {
				continue
			}
			if d := math.Abs(ei - errs[cand]); d > best {
				best, j = d, cand
			}
		}
		if j >= 0 && takeStep(i, j) {
			return true
		}
		tries := n - 1
		if tries > maxFallback {
			tries = maxFallback
		}
		for t := 0; t < tries; t++ {
			cand := rng.Intn(n)
			if cand == i || cand == j {
				continue
			}
			if takeStep(i, cand) {
				return true
			}
		}
		return false
	}

	// Platt's outer loop: alternate full sweeps with sweeps over the
	// non-bound subset until maxPasses consecutive full sweeps change
	// nothing.
	passes := 0
	examineAll := true
	for passes < maxPasses && iters < maxIter {
		changed := 0
		for i := 0; i < n && iters < maxIter; i++ {
			if !examineAll && (alphas[i] <= 0 || alphas[i] >= p.C) {
				continue
			}
			if examine(i) {
				changed++
			}
		}
		switch {
		case examineAll && changed == 0:
			passes++
		case examineAll:
			passes = 0
			examineAll = false
		case changed == 0:
			examineAll = true
		}
	}

	// Keep the support vectors.
	var idx []int
	for i, a := range alphas {
		if a > 1e-8 {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		// Pathological but possible with tiny data: keep one sample per
		// class so prediction stays defined.
		for _, want := range []float64{1, -1} {
			for i := range ys {
				if ys[i] == want {
					idx = append(idx, i)
					break
				}
			}
		}
	}
	m.SupportX = mat.TakeRows(x, idx)
	m.SupportY = make([]float64, len(idx))
	m.Alphas = make([]float64, len(idx))
	for k, i := range idx {
		m.SupportY[k] = ys[i]
		m.Alphas[k] = alphas[i]
	}
	m.B = b
	m.gamma = gamma
	return nil
}

// Decision returns the signed decision function for each row of x.
func (m *SVC) Decision(x *mat.Dense) ([]float64, error) {
	if m.SupportX == nil {
		return nil, ErrNotFitted
	}
	if x.Cols != m.SupportX.Cols {
		return nil, fmt.Errorf("svm: %d features, model has %d", x.Cols, m.SupportX.Cols)
	}
	kf := kernelFn(m.Params.withDefaults().Kernel, m.gamma)
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		s := m.B
		row := x.Row(i)
		for k := 0; k < m.SupportX.Rows; k++ {
			if m.Alphas[k] == 0 && m.SupportX.Rows > 1 {
				continue
			}
			s += float64(m.Alphas[k] * m.SupportY[k] * kf(m.SupportX.Row(k), row))
		}
		// Degenerate single-class model: bias carries the class.
		if m.SupportX.Rows == 1 && m.Alphas[0] == 0 {
			s = m.B
		}
		out[i] = s
	}
	return out, nil
}

// Predict returns 0/1 labels for each row of x.
func (m *SVC) Predict(x *mat.Dense) ([]int, error) {
	dec, err := m.Decision(x)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(dec))
	for i, d := range dec {
		if d >= 0 {
			out[i] = 1
		}
	}
	return out, nil
}

// Score returns the mean accuracy of Predict on (x, y).
func (m *SVC) Score(x *mat.Dense, y []int) (float64, error) {
	pred, err := m.Predict(x)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y)), nil
}

// Objective returns the dual SVM objective W(α) = Σαᵢ − ½ΣᵢΣⱼ αᵢαⱼyᵢyⱼK(xᵢ,xⱼ)
// evaluated on the support set — the quantity dislib's CascadeSVM monitors
// for its convergence criterion.
func (m *SVC) Objective() (float64, error) {
	if m.SupportX == nil {
		return 0, ErrNotFitted
	}
	kf := kernelFn(m.Params.withDefaults().Kernel, m.gamma)
	var w float64
	for i := 0; i < m.SupportX.Rows; i++ {
		w += m.Alphas[i]
		for j := 0; j < m.SupportX.Rows; j++ {
			w -= float64(0.5 * m.Alphas[i] * m.Alphas[j] * m.SupportY[i] * m.SupportY[j] *
				kf(m.SupportX.Row(i), m.SupportX.Row(j)))
		}
	}
	return w, nil
}

// SupportSet returns the support vectors with 0/1 labels, the unit the
// cascade passes between layers.
func (m *SVC) SupportSet() (*mat.Dense, []int) {
	labels := make([]int, len(m.SupportY))
	for i, v := range m.SupportY {
		if v > 0 {
			labels[i] = 1
		}
	}
	return m.SupportX, labels
}

// NumSupport returns the number of support vectors.
func (m *SVC) NumSupport() int {
	if m.SupportX == nil {
		return 0
	}
	return m.SupportX.Rows
}
