package ecg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Class is the diagnosis label. The paper restricts the CinC dataset to the
// Normal and AF classes.
type Class int

const (
	// Normal is sinus rhythm.
	Normal Class = iota
	// AF is atrial fibrillation.
	AF
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Normal:
		return "Normal"
	case AF:
		return "AF"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Record is one ECG recording.
type Record struct {
	// Signal is the lead voltage in millivolt-scale arbitrary units.
	Signal []float64
	// Class is the diagnosis.
	Class Class
	// Fs is the sampling frequency in Hz.
	Fs float64
	// Augmented marks records produced by AugmentShuffle rather than the
	// generator (or, in the original, the sensor).
	Augmented bool
}

// DurationSec returns the recording length in seconds.
func (r Record) DurationSec() float64 { return float64(len(r.Signal)) / r.Fs }

// GenConfig parameterises the synthetic generator.
type GenConfig struct {
	// Fs is the sampling frequency. Default 300 Hz.
	Fs float64
	// MinDurSec and MaxDurSec bound recording length. Defaults 9 and 61 s
	// (the CinC range).
	MinDurSec, MaxDurSec float64
	// NoiseStd is the white measurement noise level. Default 0.04.
	NoiseStd float64
	// AFSubtlety in [0, 1) makes AF recordings resemble Normal ones: the
	// f-wave shrinks, a partial P wave reappears, and the RR irregularity
	// is tamed. 0 (default) is textbook AF; higher values create the
	// class overlap that real single-lead recordings exhibit (short, noisy
	// AliveCor strips are far from textbook morphology), which is what
	// drives the paper's Table I error patterns.
	AFSubtlety float64
	// Seed seeds the generator's deterministic random source.
	Seed int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Fs == 0 {
		c.Fs = 300
	}
	if c.MinDurSec == 0 {
		c.MinDurSec = 9
	}
	if c.MaxDurSec == 0 {
		c.MaxDurSec = 61
	}
	if c.NoiseStd == 0 {
		c.NoiseStd = 0.04
	}
	return c
}

// Generator produces synthetic ECG records deterministically from its seed.
type Generator struct {
	cfg GenConfig
	rng *rand.Rand
}

// NewGenerator returns a generator with the given configuration.
func NewGenerator(cfg GenConfig) *Generator {
	cfg = cfg.withDefaults()
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// gauss adds a Gaussian bump (amplitude amp, center c seconds, width w
// seconds) to the signal.
func gauss(sig []float64, fs, c, w, amp float64) {
	lo := int((c - float64(4*w)) * fs)
	hi := int((c + float64(4*w)) * fs)
	if lo < 0 {
		lo = 0
	}
	if hi > len(sig) {
		hi = len(sig)
	}
	for i := lo; i < hi; i++ {
		t := float64(i)/fs - c
		sig[i] += float64(amp * math.Exp(-t*t/(2*w*w)))
	}
}

// Record generates one recording of the given class.
func (g *Generator) Record(class Class) Record {
	cfg := g.cfg
	dur := cfg.MinDurSec + float64(g.rng.Float64()*(cfg.MaxDurSec-cfg.MinDurSec))
	n := int(dur * cfg.Fs)
	sig := make([]float64, n)

	amp := 0.85 + float64(0.3*g.rng.Float64()) // per-record electrode gain

	// Beat train.
	t := 0.3 + float64(0.2*g.rng.Float64())
	var meanRR float64
	if class == Normal {
		meanRR = 0.75 + float64(0.2*g.rng.Float64()) // 63–80 bpm
	} else {
		// AF ventricular response is often faster but overlaps the normal
		// range heavily (rate-controlled patients, resting recordings) —
		// rhythm *irregularity*, not rate, is the discriminative feature.
		meanRR = 0.68 + float64(0.24*g.rng.Float64())
	}
	respPhase := float64(2 * math.Pi * g.rng.Float64())
	for t < dur-0.4 {
		// QRS complex (both classes).
		gauss(sig, cfg.Fs, t-0.025, 0.010, -0.12*amp) // Q
		gauss(sig, cfg.Fs, t, 0.012, 1.0*amp)         // R
		gauss(sig, cfg.Fs, t+0.030, 0.012, -0.20*amp) // S
		gauss(sig, cfg.Fs, t+0.28, 0.055, 0.28*amp)   // T
		if class == Normal {
			gauss(sig, cfg.Fs, t-0.17, 0.028, 0.16*amp) // P wave: Normal only
		} else if cfg.AFSubtlety > 0 {
			// Subtle AF keeps a diminished P wave.
			gauss(sig, cfg.Fs, t-0.17, 0.028, 0.16*amp*cfg.AFSubtlety)
		}

		var rr float64
		if class == Normal {
			// Regular rhythm with respiratory sinus arrhythmia and a touch
			// of jitter.
			rr = meanRR * (1 + float64(0.04*math.Sin(float64(2*math.Pi*0.25*t)+respPhase)) + float64(0.02*g.rng.NormFloat64()))
		} else {
			// Irregularly irregular: wide uniform spread, no structure;
			// AFSubtlety shrinks the spread toward a regular rhythm.
			spread := 1 - cfg.AFSubtlety
			rr = meanRR * (1 + float64(spread*(float64(0.9*g.rng.Float64())-0.4)))
		}
		if rr < 0.3 {
			rr = 0.3
		}
		t += rr
	}

	// AF fibrillatory baseline: 4–9 Hz drifting oscillation.
	if class == AF {
		f := 4 + float64(5*g.rng.Float64())
		phase := float64(2 * math.Pi * g.rng.Float64())
		famp := (0.06 + float64(0.04*g.rng.Float64())) * amp * (1 - cfg.AFSubtlety)
		for i := range sig {
			tt := float64(i) / cfg.Fs
			// Slight frequency wobble makes the f-wave band realistic.
			sig[i] += float64(famp * math.Sin(float64(2*math.Pi*f*tt)+phase+float64(0.8*math.Sin(2*math.Pi*0.3*tt))))
		}
	}

	// Baseline wander (electrode drift, respiration) and white noise.
	wf := 0.15 + float64(0.2*g.rng.Float64())
	wp := float64(2 * math.Pi * g.rng.Float64())
	for i := range sig {
		tt := float64(i) / cfg.Fs
		sig[i] += float64(0.05 * math.Sin(float64(2*math.Pi*wf*tt)+wp))
		sig[i] += float64(cfg.NoiseStd * g.rng.NormFloat64())
	}
	return Record{Signal: sig, Class: class, Fs: cfg.Fs}
}

// Paroxysmal generates a recording in which an AF episode starts mid-way:
// normalSec seconds of sinus rhythm followed by afSec seconds of AF. It
// returns the record and the episode onset as a sample index. The paper's
// edge-monitoring scenario (Figure 1) detects such episodes in real time on
// the wearable.
func (g *Generator) Paroxysmal(normalSec, afSec float64) (Record, int) {
	cfg := g.cfg
	cfg.MinDurSec, cfg.MaxDurSec = normalSec, normalSec+1e-9
	gn := &Generator{cfg: cfg, rng: g.rng}
	normal := gn.Record(Normal)
	cfg.MinDurSec, cfg.MaxDurSec = afSec, afSec+1e-9
	ga := &Generator{cfg: cfg, rng: g.rng}
	af := ga.Record(AF)
	onset := len(normal.Signal)
	sig := append(append([]float64(nil), normal.Signal...), af.Signal...)
	return Record{Signal: sig, Class: AF, Fs: g.cfg.Fs}, onset
}

// Dataset generates nNormal Normal and nAF AF recordings in a deterministic
// shuffled order. The paper's class prior is 5154 Normal to 771 AF.
func (g *Generator) Dataset(nNormal, nAF int) []Record {
	recs := make([]Record, 0, nNormal+nAF)
	for i := 0; i < nNormal; i++ {
		recs = append(recs, g.Record(Normal))
	}
	for i := 0; i < nAF; i++ {
		recs = append(recs, g.Record(AF))
	}
	g.rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// DetectRPeaks locates R peaks with a derivative-energy detector in the
// spirit of the Gamboa segmenter the paper uses from BioSPPy: differentiate,
// square, smooth with an 80 ms moving average, threshold adaptively, and
// refine each detection to the local maximum of the raw signal. Returns
// sample indices in increasing order.
func DetectRPeaks(x []float64, fs float64) []int {
	n := len(x)
	if n < 3 {
		return nil
	}
	// Derivative energy.
	e := make([]float64, n)
	for i := 1; i < n-1; i++ {
		d := x[i+1] - x[i-1]
		e[i] = d * d
	}
	// Moving average, 80 ms.
	w := int(0.08 * fs)
	if w < 1 {
		w = 1
	}
	sm := movingAvg(e, w)
	// Adaptive threshold: fraction of a robust maximum (99th percentile
	// resists isolated spikes).
	thr := 0.25 * percentile(sm, 0.99)
	if thr <= 0 {
		return nil
	}
	refractory := int(0.25 * fs)
	half := int(0.06 * fs)
	var peaks []int
	i := 0
	for i < n {
		if sm[i] <= thr {
			i++
			continue
		}
		// Region above threshold: find raw-signal max nearby.
		j := i
		for j < n && sm[j] > thr {
			j++
		}
		lo, hi := i-half, j+half
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		best := lo
		for k := lo; k < hi; k++ {
			if x[k] > x[best] {
				best = k
			}
		}
		if len(peaks) == 0 || best-peaks[len(peaks)-1] >= refractory {
			peaks = append(peaks, best)
		}
		i = j + refractory
	}
	return peaks
}

func movingAvg(x []float64, w int) []float64 {
	out := make([]float64, len(x))
	var sum float64
	for i := range x {
		sum += x[i]
		if i >= w {
			sum -= x[i-w]
		}
		out[i] = sum / float64(minInt(i+1, w))
	}
	return out
}

func percentile(x []float64, p float64) float64 {
	tmp := make([]float64, len(x))
	copy(tmp, x)
	sort.Float64s(tmp)
	idx := int(p * float64(len(tmp)-1))
	return tmp[idx]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// RRIntervals converts peak indices into RR intervals in seconds.
func RRIntervals(peaks []int, fs float64) []float64 {
	if len(peaks) < 2 {
		return nil
	}
	out := make([]float64, len(peaks)-1)
	for i := 1; i < len(peaks); i++ {
		out[i-1] = float64(peaks[i]-peaks[i-1]) / fs
	}
	return out
}

// PatchPeaks is the patch length of the augmentation: the paper segments
// signals into "stretches of 6 contiguous R peaks", the minimum ECG length
// needed to detect irregular rhythms.
const PatchPeaks = 6

// AugmentShuffle produces one synthetic record from rec by the paper's
// Figure 2 procedure: the signal is segmented into patches of PatchPeaks
// contiguous R peaks separated by spacers, the patches are shuffled, and
// the pieces are reassembled in the original slot structure. The output has
// exactly the same samples as the input (permuted), so ECG morphology and
// total signal statistics are preserved while the beat sequence changes.
//
// The record is returned unchanged (not copied, not marked augmented) when
// fewer than 2 full patches exist.
func AugmentShuffle(rec Record, rng *rand.Rand) Record {
	peaks := DetectRPeaks(rec.Signal, rec.Fs)
	nPatches := len(peaks) / PatchPeaks
	if nPatches < 2 {
		return rec
	}
	// Patch p spans from the midpoint before its first peak to the midpoint
	// after its last peak; the leftovers are spacers (start/end remainders
	// and the inter-patch midpoint cuts).
	type span struct{ lo, hi int }
	patches := make([]span, nPatches)
	for p := 0; p < nPatches; p++ {
		first := peaks[p*PatchPeaks]
		last := peaks[p*PatchPeaks+PatchPeaks-1]
		lo := first
		if p == 0 {
			lo = boundary(peaks, p*PatchPeaks, first, 0)
		} else {
			prevLast := peaks[p*PatchPeaks-1]
			lo = (prevLast + first) / 2
		}
		hi := last
		if p == nPatches-1 && p*PatchPeaks+PatchPeaks >= len(peaks) {
			hi = boundary(peaks, -1, last, len(rec.Signal))
		} else if p*PatchPeaks+PatchPeaks < len(peaks) {
			next := peaks[p*PatchPeaks+PatchPeaks]
			hi = (last + next) / 2
		} else {
			hi = len(rec.Signal)
		}
		patches[p] = span{lo, hi}
	}

	order := rng.Perm(nPatches)
	out := make([]float64, 0, len(rec.Signal))
	// Leading spacer.
	out = append(out, rec.Signal[:patches[0].lo]...)
	for i := 0; i < nPatches; i++ {
		src := patches[order[i]]
		out = append(out, rec.Signal[src.lo:src.hi]...)
		// Spacer that followed slot i in the original layout.
		if i < nPatches-1 {
			out = append(out, rec.Signal[patches[i].hi:patches[i+1].lo]...)
		}
	}
	// Trailing spacer.
	out = append(out, rec.Signal[patches[nPatches-1].hi:]...)

	return Record{Signal: out, Class: rec.Class, Fs: rec.Fs, Augmented: true}
}

// boundary computes the outer edge for the first/last patch: half an RR
// interval outside the edge peak, clamped to the signal.
func boundary(peaks []int, _ int, peak, clamp int) int {
	if clamp == 0 { // leading edge
		if len(peaks) >= 2 {
			half := (peaks[1] - peaks[0]) / 2
			if peak-half > 0 {
				return peak - half
			}
		}
		return 0
	}
	if len(peaks) >= 2 {
		half := (peaks[len(peaks)-1] - peaks[len(peaks)-2]) / 2
		if peak+half < clamp {
			return peak + half
		}
	}
	return clamp
}

// Balance augments the minority class with AugmentShuffle until both
// classes have equal counts, the procedure the paper applies to the 771 AF
// vs 5154 Normal imbalance. Source records are chosen uniformly at random
// from the original minority recordings.
func Balance(recs []Record, rng *rand.Rand) []Record {
	var nNormal, nAF int
	var minority []Record
	for _, r := range recs {
		if r.Class == Normal {
			nNormal++
		} else {
			nAF++
		}
	}
	minClass := AF
	need := nNormal - nAF
	if nAF > nNormal {
		minClass = Normal
		need = nAF - nNormal
	}
	for _, r := range recs {
		if r.Class == minClass && !r.Augmented {
			minority = append(minority, r)
		}
	}
	out := append([]Record(nil), recs...)
	if len(minority) == 0 {
		return out
	}
	for i := 0; i < need; i++ {
		src := minority[rng.Intn(len(minority))]
		aug := AugmentShuffle(src, rng)
		aug.Augmented = true
		out = append(out, aug)
	}
	return out
}

// Counts returns the number of records per class.
func Counts(recs []Record) (nNormal, nAF int) {
	for _, r := range recs {
		if r.Class == Normal {
			nNormal++
		} else {
			nAF++
		}
	}
	return
}
