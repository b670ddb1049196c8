package sigproc

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"taskml/internal/mat"
	"taskml/internal/par"
)

// naiveDFT is the O(n²) reference the FFT is validated against.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Fatalf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Fatalf("IsPow2(%d) = true", n)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	got := FFT(x)
	for k, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("FFT(impulse)[%d] = %v, want 1", k, v)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(6)) // 2..64
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := FFT(x)
		want := naiveDFT(x)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(7))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		back := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeE += real(x[i]) * real(x[i])
	}
	var freqE float64
	for _, v := range FFT(x) {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	freqE /= float64(n)
	if math.Abs(timeE-freqE) > 1e-9*timeE {
		t.Fatalf("Parseval violated: time %v vs freq %v", timeE, freqE)
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	orig := append([]complex128(nil), x...)
	FFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("FFT mutated its input")
		}
	}
}

func TestFFTNonPow2Panics(t *testing.T) {
	// A silent wrong answer here would corrupt every downstream feature, so
	// the guard must fire with a message that names the bad length.
	for _, n := range []int{3, 6, 100} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("FFT(len %d): want panic", n)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "not a power of two") {
					t.Fatalf("FFT(len %d): panic %v lacks diagnostic message", n, r)
				}
			}()
			FFT(make([]complex128, n))
		}()
	}
}

func TestHannWindow(t *testing.T) {
	w := Hann(9)
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[8]) > 1e-12 {
		t.Fatalf("Hann endpoints = %v, %v, want 0", w[0], w[8])
	}
	if math.Abs(w[4]-1) > 1e-12 {
		t.Fatalf("Hann midpoint = %v, want 1", w[4])
	}
	for i := 0; i < 4; i++ {
		if math.Abs(w[i]-w[8-i]) > 1e-12 {
			t.Fatal("Hann window not symmetric")
		}
	}
	if Hann(1)[0] != 1 {
		t.Fatal("Hann(1) must be [1]")
	}
}

func TestZeroPad(t *testing.T) {
	x := []float64{1, 2, 3}
	p := ZeroPad(x, 6)
	if len(p) != 6 || p[0] != 1 || p[2] != 3 || p[3] != 0 || p[5] != 0 {
		t.Fatalf("ZeroPad = %v", p)
	}
	// Truncation case.
	tr := ZeroPad(x, 2)
	if len(tr) != 2 || tr[0] != 1 || tr[1] != 2 {
		t.Fatalf("ZeroPad truncate = %v", tr)
	}
}

func TestSpectrogramConfigValidate(t *testing.T) {
	good := SpectrogramConfig{Fs: 300, WindowSize: 64, Overlap: 32}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SpectrogramConfig{
		{Fs: 0, WindowSize: 64, Overlap: 0},
		{Fs: 300, WindowSize: 60, Overlap: 0},
		{Fs: 300, WindowSize: 64, Overlap: 64},
		{Fs: 300, WindowSize: 64, Overlap: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should be invalid: %+v", i, c)
		}
	}
}

func TestSpectrogramShape(t *testing.T) {
	c := SpectrogramConfig{Fs: 300, WindowSize: 64, Overlap: 32}
	n := 640
	x := make([]float64, n)
	m, freqs, times, err := Spectrogram(x, c)
	if err != nil {
		t.Fatal(err)
	}
	wantSegs := c.NumSegments(n)
	if m.Rows != 33 || m.Cols != wantSegs {
		t.Fatalf("spectrogram shape %dx%d, want 33x%d", m.Rows, m.Cols, wantSegs)
	}
	if len(freqs) != 33 || len(times) != wantSegs {
		t.Fatalf("axes lengths %d, %d", len(freqs), len(times))
	}
	if freqs[0] != 0 || math.Abs(freqs[32]-150) > 1e-9 {
		t.Fatalf("freq axis = [%v .. %v], want [0 .. 150] (Nyquist)", freqs[0], freqs[32])
	}
	if c.FeatureLen(n) != 33*wantSegs {
		t.Fatalf("FeatureLen = %d", c.FeatureLen(n))
	}
}

func TestSpectrogramTooShortSignal(t *testing.T) {
	c := SpectrogramConfig{Fs: 300, WindowSize: 64, Overlap: 0}
	if _, _, _, err := Spectrogram(make([]float64, 10), c); err == nil {
		t.Fatal("want error for short signal")
	}
}

func TestSpectrogramLocatesSinusoid(t *testing.T) {
	// A 30 Hz tone sampled at 300 Hz must put its energy in the 30 Hz bin.
	c := SpectrogramConfig{Fs: 300, WindowSize: 128, Overlap: 64}
	n := 1500
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 30 * float64(i) / 300)
	}
	m, freqs, _, err := Spectrogram(x, c)
	if err != nil {
		t.Fatal(err)
	}
	// Average power per bin across segments.
	best, bestPow := -1, 0.0
	for b := 0; b < m.Rows; b++ {
		var p float64
		for s := 0; s < m.Cols; s++ {
			p += m.At(b, s)
		}
		if p > bestPow {
			best, bestPow = b, p
		}
	}
	if math.Abs(freqs[best]-30) > c.Fs/float64(c.WindowSize)+1e-9 {
		t.Fatalf("peak at %v Hz, want ~30 Hz", freqs[best])
	}
}

func TestSpectrogramNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	m, _, _, err := Spectrogram(x, SpectrogramConfig{Fs: 300, WindowSize: 64, Overlap: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Data {
		if v < 0 {
			t.Fatalf("negative PSD value %v", v)
		}
	}
}

// The STFT segments are computed in parallel chunks; the result must be
// bit-for-bit the same as the serial sweep (each segment's arithmetic is
// untouched by the chunking).
func TestSpectrogramBitIdenticalAcrossLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := SpectrogramConfig{Fs: 300, WindowSize: 128, Overlap: 64}
	serialOnly := par.Lend(make(par.Slots)) // no slot to borrow: serial
	serial, _, _, err := Spectrogram(x, c)
	serialOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer par.Lend(make(par.Slots, 7))() // seven helpers a region
	parallel, _, _, err := Spectrogram(x, c)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(serial, parallel, 0) {
		t.Fatal("parallel spectrogram differs from serial")
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkSpectrogram18000(b *testing.B) {
	// Roughly one zero-padded 60 s ECG at 300 Hz.
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 18000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := SpectrogramConfig{Fs: 300, WindowSize: 256, Overlap: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Spectrogram(x, c); err != nil {
			b.Fatal(err)
		}
	}
}
