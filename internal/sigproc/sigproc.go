package sigproc

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"taskml/internal/mat"
	"taskml/internal/par"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the discrete Fourier transform of x with an iterative
// radix-2 Cooley-Tukey algorithm. len(x) must be a power of two; FFT
// panics otherwise, as that is a programming error in this codebase. The input is not modified.
func FFT(x []complex128) []complex128 {
	return fft(x, false)
}

// IFFT computes the inverse DFT (normalised by 1/n).
func IFFT(x []complex128) []complex128 {
	out := fft(x, true)
	inv := 1 / float64(len(x))
	for i := range out {
		out[i] = cmul(out[i], complex(inv, 0))
	}
	return out
}

func fft(x []complex128, inverse bool) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, inverse)
	return out
}

// fftInPlace transforms x in place: the bit-reversal permutation is an
// involution, so it reduces to swaps, and the butterfly passes already
// operate on the permuted array. Identical arithmetic (and therefore
// bit-identical output) to the allocating form — this is the work-buffer
// kernel Plan reuses across STFT segments.
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if !IsPow2(n) {
		panic(fmt.Sprintf("sigproc: FFT length %d is not a power of two", n))
	}
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < n; i++ {
		rev := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				rev |= 1 << (bits - 1 - b)
			}
		}
		if i < rev {
			x[i], x[rev] = x[rev], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := cmplx.Exp(complex(0, sign*2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := cmul(x[start+k+half], w)
				x[start+k] = a + b
				x[start+k+half] = a - b
				w = cmul(w, step)
			}
		}
	}
}

// cmul is x·y as Go multiplies complex128 values — (ac−bd) + (ad+bc)i —
// with every product rounded before its sum. Written out, the float64
// conversions keep arm64 from fusing a product into its sum (FMADDD), so
// every architecture computes amd64's bits.
func cmul(x, y complex128) complex128 {
	a, b, c, d := real(x), imag(x), real(y), imag(y)
	return complex(float64(a*c)-float64(b*d), float64(a*d)+float64(b*c))
}

// Hann returns the n-point Hann window (the window we use for the STFT; the
// paper's SciPy call defaults to a Tukey window — both are tapered cosine
// windows with equivalent effect on the downstream features).
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// ZeroPad extends (or truncates) x to length n by appending zeros — the
// paper's zero-padding step that evens out the 9-to-61-second recordings
// (§III-B.2).
func ZeroPad(x []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, x)
	return out
}

// SpectrogramConfig parameterises the STFT.
type SpectrogramConfig struct {
	// Fs is the sampling frequency in Hz (300 for the CinC recordings).
	Fs float64
	// WindowSize is the segment length (power of two).
	WindowSize int
	// Overlap is the number of samples shared by consecutive segments;
	// must be < WindowSize.
	Overlap int
}

// Validate checks the configuration.
func (c SpectrogramConfig) Validate() error {
	if c.Fs <= 0 {
		return fmt.Errorf("sigproc: Fs must be positive, got %v", c.Fs)
	}
	if !IsPow2(c.WindowSize) {
		return fmt.Errorf("sigproc: WindowSize %d must be a power of two", c.WindowSize)
	}
	if c.Overlap < 0 || c.Overlap >= c.WindowSize {
		return fmt.Errorf("sigproc: Overlap %d must be in [0, WindowSize)", c.Overlap)
	}
	return nil
}

// NumSegments returns how many STFT segments a signal of length n yields.
func (c SpectrogramConfig) NumSegments(n int) int {
	hop := c.WindowSize - c.Overlap
	if n < c.WindowSize {
		return 0
	}
	return 1 + (n-c.WindowSize)/hop
}

// NumBins returns the number of one-sided frequency bins.
func (c SpectrogramConfig) NumBins() int { return c.WindowSize/2 + 1 }

// Plan is a reusable STFT execution: the Hann window, its power
// normalisation and the per-goroutine FFT work buffers are computed or
// pooled once and amortised over every Execute call with the same
// configuration. Plans are safe for concurrent use; the feature-extraction
// tasks that spectrogram thousands of recordings share one plan per
// configuration through the cache behind Spectrogram.
type Plan struct {
	cfg   SpectrogramConfig
	win   []float64
	scale float64
	bufs  sync.Pool // *[]complex128 FFT work buffers, one per goroutine

	// getFn/putFn are the pool accessors as prebuilt func values: method
	// values allocate a closure at every use site, which would put two
	// allocations back into every ExecuteInto call.
	getFn func() any
	putFn func(any)
}

// NewPlan validates c and precomputes the window.
func NewPlan(c SpectrogramConfig) (*Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	win := Hann(c.WindowSize)
	var winPow float64
	for _, w := range win {
		winPow += float64(w * w)
	}
	p := &Plan{cfg: c, win: win, scale: 1 / (c.Fs * winPow)}
	p.getFn, p.putFn = p.getBuf, p.putBuf
	return p, nil
}

// Config returns the plan's configuration.
func (p *Plan) Config() SpectrogramConfig { return p.cfg }

func (p *Plan) getBuf() any {
	if v := p.bufs.Get(); v != nil {
		return v
	}
	b := make([]complex128, p.cfg.WindowSize)
	return &b
}

func (p *Plan) putBuf(v any) { p.bufs.Put(v) }

// Execute computes the spectrogram of x into a freshly allocated matrix
// (with bin frequencies and segment times, like Spectrogram). The result
// is independent of plan scratch and safe to publish through a Future.
func (p *Plan) Execute(x []float64) (*mat.Dense, []float64, []float64, error) {
	c := p.cfg
	nseg := c.NumSegments(len(x))
	if nseg == 0 {
		return nil, nil, nil, fmt.Errorf("sigproc: signal length %d shorter than window %d", len(x), c.WindowSize)
	}
	out := mat.New(c.NumBins(), nseg)
	p.ExecuteInto(x, out)
	freqs := make([]float64, c.NumBins())
	for b := range freqs {
		freqs[b] = float64(b) * c.Fs / float64(c.WindowSize)
	}
	hop := c.WindowSize - c.Overlap
	times := make([]float64, nseg)
	for s := range times {
		times[s] = (float64(s*hop) + float64(float64(c.WindowSize)/2)) / c.Fs
	}
	return out, freqs, times, nil
}

// ExecuteInto computes the spectrogram of x into dst, which must be
// pre-shaped to NumBins × NumSegments(len(x)) — typically pooled scratch
// when the flattened features, not the matrix itself, are what escapes.
// The per-segment loop is allocation-free: FFT work buffers come from the
// plan's pool, one per participating goroutine (par.ForScratch), and are
// returned when the region drains.
func (p *Plan) ExecuteInto(x []float64, dst *mat.Dense) {
	c := p.cfg
	nseg := c.NumSegments(len(x))
	nb := c.NumBins()
	if dst.Rows != nb || dst.Cols != nseg {
		panic(fmt.Sprintf("sigproc: ExecuteInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, nb, nseg))
	}
	hop := c.WindowSize - c.Overlap
	win := p.win
	scale := p.scale
	// Segments are independent: each goroutine reuses one work buffer for
	// all its chunks and writes a disjoint set of output columns. Grain
	// keeps a chunk at ≥ a few thousand butterfly operations.
	grain := 1 + (1<<13)/c.WindowSize
	par.ForScratch(nseg, grain, p.getFn, p.putFn, func(lo, hi int, scratch any) {
		buf := *(scratch.(*[]complex128))
		for s := lo; s < hi; s++ {
			off := s * hop
			for i := 0; i < c.WindowSize; i++ {
				buf[i] = complex(x[off+i]*win[i], 0)
			}
			fftInPlace(buf, false)
			for b := 0; b < nb; b++ {
				pw := float64(real(buf[b])*real(buf[b])) + float64(imag(buf[b])*imag(buf[b]))
				pw = float64(pw * scale)
				if b != 0 && b != c.WindowSize/2 {
					pw *= 2 // one-sided: fold the negative frequencies
				}
				dst.Set(b, s, pw)
			}
		}
	})
}

// plans caches one Plan per configuration so repeated Spectrogram calls —
// the per-recording feature tasks — share windows and work buffers.
var plans sync.Map // SpectrogramConfig → *Plan

// PlanFor returns the cached plan for c, creating it on first use.
func PlanFor(c SpectrogramConfig) (*Plan, error) {
	if v, ok := plans.Load(c); ok {
		return v.(*Plan), nil
	}
	p, err := NewPlan(c)
	if err != nil {
		return nil, err
	}
	v, _ := plans.LoadOrStore(c, p)
	return v.(*Plan), nil
}

// Spectrogram computes the one-sided power spectral density spectrogram of
// x: rows are frequency bins (NumBins), columns are time segments, matching
// scipy.signal.spectrogram's layout where "each column contains an estimate
// of the short-term, time-localized frequency components" (§III-B.3).
// It also returns the bin frequencies (Hz) and segment center times (s).
// Repeated calls with the same configuration reuse a cached Plan.
func Spectrogram(x []float64, c SpectrogramConfig) (*mat.Dense, []float64, []float64, error) {
	p, err := PlanFor(c)
	if err != nil {
		return nil, nil, nil, err
	}
	return p.Execute(x)
}

// FeatureLen returns the flattened feature length for signals of length n —
// the analogue of the paper's 18810-long vector.
func (c SpectrogramConfig) FeatureLen(n int) int {
	return c.NumBins() * c.NumSegments(n)
}
