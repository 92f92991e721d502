package stats

// Gradient returns the multiplicative gradient of a series as used by
// the cache-level detector (Fig. 2(b) of the paper):
// G[k] = C[k+1]/C[k] for 0 <= k < len(c)-1.
//
// Entries where C[k] <= 0 yield a gradient of 1 (no information).
func Gradient(c []float64) []float64 {
	if len(c) < 2 {
		return nil
	}
	g := make([]float64, len(c)-1)
	for k := 0; k+1 < len(c); k++ {
		if c[k] <= 0 {
			g[k] = 1
			continue
		}
		g[k] = c[k+1] / c[k]
	}
	return g
}

// Run is a maximal contiguous region of a gradient series whose values
// stay at or above a threshold. Each run corresponds to one cache-level
// transition in the detector of Fig. 4: a width-1 run means a sharp
// (virtually-indexed or page-colored) transition, a wider run means the
// smeared transition of a physically-indexed cache under random page
// placement.
type Run struct {
	Start int     // first index with g >= threshold
	End   int     // last index with g >= threshold (inclusive)
	Peak  int     // index of the maximum gradient within the run
	Max   float64 // maximum gradient within the run
}

// Width returns the number of indices covered by the run.
func (r Run) Width() int { return r.End - r.Start + 1 }

// FindRuns segments a gradient series into maximal runs of values
// >= threshold, discarding runs whose maximum is below minPeak
// (low-amplitude blips caused by measurement noise).
func FindRuns(g []float64, threshold, minPeak float64) []Run {
	var runs []Run
	i := 0
	for i < len(g) {
		if g[i] < threshold {
			i++
			continue
		}
		r := Run{Start: i, End: i, Peak: i, Max: g[i]}
		for i++; i < len(g) && g[i] >= threshold; i++ {
			r.End = i
			if g[i] > r.Max {
				r.Max = g[i]
				r.Peak = i
			}
		}
		if r.Max >= minPeak {
			runs = append(runs, r)
		}
	}
	return runs
}

// ArgMax returns the index of the maximum value of xs, or -1 for an
// empty slice. Ties resolve to the first occurrence.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// MinMax returns the minimum and maximum of xs. It panics on an empty
// slice: callers always operate on non-empty measurement windows.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}
