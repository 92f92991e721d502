package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks, the same rule as NumPy's
// default. It does not modify xs. An empty slice yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailSamples is how many samples lie strictly beyond the
// q-percentile rank of n samples: a percentile is reportable only when
// at least ten do.
func tailSamples(n int, q float64) int {
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts per-op wall times to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// mib converts a byte count to MiB.
func mib(b uint64) float64 { return float64(b) / (1 << 20) }
