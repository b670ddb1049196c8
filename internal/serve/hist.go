package serve

import "time"

// histBase is the upper bound of the first latency bucket.
const histBase = 50 * time.Microsecond

// latHist is a fixed log₂-bucket latency histogram: bucket 0 counts
// observations below histBase, bucket b counts [histBase·2^(b-1),
// histBase·2^b). Quantile returns the upper bound of the bucket holding
// the requested rank, so reported quantiles are conservative (rounded up)
// and resolution degrades with magnitude — the right trade for SLO math,
// where 12 ms vs 14 ms never changes an admission decision but 50 ms vs
// 500 ms does. The zero value is ready to use; callers provide locking.
type latHist struct {
	n       int64
	buckets [32]int64
}

func (h *latHist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := 0
	for t := histBase; b < len(h.buckets)-1 && d >= t; b++ {
		t *= 2
	}
	h.buckets[b]++
	h.n++
}

// quantile returns an upper bound for the q-quantile (q in [0, 1]), or 0
// when the histogram is empty.
func (h *latHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n-1)) + 1
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, c := range h.buckets {
		cum += c
		if cum >= rank {
			return histBase << b
		}
	}
	return histBase << (len(h.buckets) - 1)
}

// costFit fits a batch's turnaround t = c0 + c1·b to its size b over recent
// batches, with exponentially decaying weights: c0 is what a batch costs
// whatever its size (submit, wake-ups, delivery), c1 what each window adds.
// The zero value is ready to use; callers provide locking.
type costFit struct {
	b, t, bb, bt float64 // weighted means of b, t, b², b·t; b is 0 until a batch
}

// fitDecay is the weight of the newest batch: a server scoring thousands of
// batches a second follows a change of load within a few milliseconds.
const fitDecay = 0.05

func (f *costFit) add(b, t float64) {
	if f.b == 0 {
		f.b, f.t, f.bb, f.bt = b, t, b*b, b*t
	} else {
		f.b += float64(fitDecay * (b - f.b))
		f.t += float64(fitDecay * (t - f.t))
		f.bb += float64(fitDecay * (float64(b*b) - f.bb))
		f.bt += float64(fitDecay * (float64(b*t) - f.bt))
	}
}

// perWindow is what a window costs in a batch of full windows, c1 + c0/full:
// the cost that sets a loaded server's capacity, where batches fill. The
// mean turnaround over the mean size would charge every window of a small
// batch its whole per-batch cost. Without spread in the sizes seen, or with
// a fit that is not a cost (c1 ≤ 0, c0 < 0), it falls back to that mean,
// and it never exceeds it.
func (f *costFit) perWindow(full int) float64 {
	if f.b == 0 {
		return 0
	}
	mean := f.t / f.b
	spread := f.bb - float64(f.b*f.b)
	if spread < 1 {
		return mean
	}
	c1 := (f.bt - float64(f.b*f.t)) / spread
	c0 := f.t - float64(c1*f.b)
	if c1 <= 0 || c0 < 0 {
		return mean
	}
	return min(c1+c0/float64(full), mean)
}
