// Package stats provides the small statistical toolkit used by the
// Servet benchmarks: binomial tail probabilities for the probabilistic
// cache-size estimator, gradient series and run segmentation for the
// cache-level detector, similarity clustering and connected components
// for the overhead/latency characterizers, and greedy matching for the
// layer scalability benchmark.
package stats

import "math"

// BinomialTail returns P(X > k) for X ~ B(n, p).
//
// It is computed by summing the probability mass function
// incrementally, pmf(i+1) = pmf(i) * (n-i)/(i+1) * p/(1-p), which is
// numerically stable for the (n, p) ranges used by the cache-size
// estimator (n up to tens of thousands, p down to ~1e-4).
//
// Edge cases: p <= 0 yields 0 (X is always 0, so X > k iff k < 0);
// p >= 1 yields 1 for k < n and 0 otherwise; k >= n yields 0; k < 0
// yields 1.
func BinomialTail(n int, p float64, k int) float64 {
	if n < 0 {
		return 0
	}
	if k < 0 {
		return 1
	}
	if k >= n {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	// CDF(k) = sum_{i=0..k} pmf(i); tail = 1 - CDF(k).
	// Work in log space for the first term to avoid underflow for
	// large n, then switch to linear space via exp once the running
	// term is representable.
	logPMF := float64(n) * math.Log1p(-p) // log pmf(0)
	ratio := p / (1 - p)
	cdf := 0.0
	logTerm := logPMF
	for i := 0; i <= k; i++ {
		cdf += math.Exp(logTerm)
		// advance to pmf(i+1)
		logTerm += math.Log(float64(n-i)) - math.Log(float64(i+1)) + math.Log(ratio)
	}
	tail := 1 - cdf
	if tail < 0 {
		return 0
	}
	if tail > 1 {
		return 1
	}
	return tail
}
