package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the p-quantile of an ascending sample by linear
// interpolation between the two nearest ranks; 0 for an empty sample.
func quantile(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return asc[n-1]
	}
	frac := pos - float64(lo)
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// summary is how every timing is reported: the median with its quartiles
// and the sample count.
type summary struct {
	N           int
	Q1, P50, Q3 float64
}

func summarize(xs []float64) summary {
	asc := sorted(xs)
	return summary{N: len(asc), Q1: quantile(asc, 0.25), P50: quantile(asc, 0.5), Q3: quantile(asc, 0.75)}
}

// beyond is the number of samples a percentile needs above it before it is
// reported.
const beyond = 10

// tailSupported reports whether an n-sample set has at least ten samples
// beyond its p-quantile, the rule under which a pNN is printed at all.
func tailSupported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= beyond
}

// tail returns the p-quantile of xs when the sample supports it.
func tail(xs []float64, p float64) (float64, bool) {
	if !tailSupported(len(xs), p) {
		return 0, false
	}
	return quantile(sorted(xs), p), true
}

func toMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func toUS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// millis converts seconds to milliseconds.
func millis(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v * 1e3
	}
	return out
}

// ratio is a/b, or 0 when the base is 0 (a layer the workload never
// touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
