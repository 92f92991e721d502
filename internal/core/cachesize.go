package core

import (
	"context"
	"sort"

	"servet/internal/memsys"
	"servet/internal/obs"
	"servet/internal/sched"
	"servet/internal/stats"
	"servet/internal/topology"
)

// DetectedCache is one cache level found by the Fig. 4 driver.
type DetectedCache struct {
	// Level is 1 for the first detected level.
	Level int
	// SizeBytes is the estimated capacity.
	SizeBytes int64
	// Method is "gradient" for sizes read directly off a sharp
	// gradient peak, "probabilistic" for sizes from the binomial
	// estimator.
	Method string
}

// sharpMin is the minimum gradient of a width-1 run (other than the
// first) to count as a real page-colored transition: sharp capacity
// misses multiply the access cost severalfold, while measurement noise
// produces isolated blips below this.
const sharpMin = 2.0

// ratioThreshold flags a pair as sharing a cache when its concurrent
// cycle count exceeds this multiple of the isolated reference, as in
// Fig. 5.
const ratioThreshold = 2.0

// similarTol is the relative tolerance of the first-match "similar
// value" clustering of the memory-overhead and communication-costs
// benchmarks (Figs. 6 and 7).
const similarTol = 0.10

// candidate associativities tried by the probabilistic estimator.
var candidateAssocs = []int{2, 4, 6, 8, 9, 12, 16, 18, 24, 32}

// candidateSizes enumerates plausible cache sizes within [lo, hi]:
// powers of two and 3x / 9x multiples of powers of two (covering
// capacities like 3 MB, 12 MB and 9 MB that real machines use).
func candidateSizes(lo, hi int64) []int64 {
	set := map[int64]bool{}
	for _, base := range []int64{1, 3, 9} {
		for s := base * topology.KB; s <= hi; s *= 2 {
			if s >= lo {
				set[s] = true
			}
		}
	}
	out := make([]int64, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ProbabilisticSize implements the Fig. 3 algorithm: given the
// mcalibrator outputs of a transition window (sizes and cycles around
// one gradient bump), it normalizes the cycles into miss rates, scores
// every (cache size, associativity) candidate by the L1 distance
// between the measured miss-rate curve and the binomial prediction,
// and returns the statistical mode of the cache size over the five
// lowest-divergence candidates.
//
// The paper writes the prediction as P(X > K), X ~ B(NP, K*PS/CS).
// Under the simulator's strict-LRU sets a page conflicts as soon as
// its page set hosts K or more pages in total including itself, so the
// measured rate is P(X >= K); real pseudo-LRU hardware sits between
// the two conventions. We use the boundary that matches the substrate
// (see DESIGN.md, "substitutions").
func ProbabilisticSize(sizes []int64, cycles []float64, pageBytes int64) int64 {
	if len(sizes) == 0 || len(sizes) != len(cycles) {
		return 0
	}
	hitTime, maxC := stats.MinMax(cycles)
	missOverhead := maxC - hitTime
	if missOverhead <= 0 {
		return 0
	}
	mr := make([]float64, len(cycles))
	np := make([]int, len(sizes))
	for i := range cycles {
		mr[i] = (cycles[i] - hitTime) / missOverhead
		np[i] = int(sizes[i] / pageBytes)
	}

	// Candidate sizes live within the transition window (the true size
	// sits between the last fitting size and the first thrashing one).
	lo, hi := sizes[0], sizes[len(sizes)-1]
	type entry struct {
		cs  int64
		div float64
	}
	var entries []entry
	for _, cs := range candidateSizes(lo, hi) {
		for _, k := range candidateAssocs {
			p := float64(k) * float64(pageBytes) / float64(cs)
			if p > 1 { // associativity impossible for this size
				continue
			}
			div := 0.0
			for i := range mr {
				div += abs(mr[i] - stats.BinomialTail(np[i], p, k-1))
			}
			entries = append(entries, entry{cs: cs, div: div})
		}
	}
	if len(entries) == 0 {
		return 0
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].div < entries[j].div })
	n := 5
	if len(entries) < n {
		n = len(entries)
	}
	best := make([]int64, n)
	for i := 0; i < n; i++ {
		best[i] = entries[i].cs
	}
	return stats.ModeRanked(best)
}

// transitionWindow delimits the calibration indices the probabilistic
// estimator should see for one gradient run: one fitting point below
// the run (the hit-time baseline) and, past the run, every point until
// the gradient flattens (<= 1.02, a saturated miss plateau) or rises
// back above the run threshold (the next level's bump beginning) —
// without a saturated tail the normalization of Fig. 3 inflates every
// miss rate and the fit drifts to a smaller size; overrunning into the
// next bump makes the larger level dominate the fit.
func transitionWindow(g []float64, run stats.Run, threshold float64, nSizes int) (loIdx, hiIdx int) {
	loIdx = run.Start - 1
	if loIdx < 0 {
		loIdx = 0
	}
	// Walk right through the run's decaying tail. Stop when the
	// gradient flattens (saturation), crosses the run threshold, or
	// starts rising again — a rising gradient past the run is the next
	// level's transition beginning, and including it would let the
	// larger level dominate the fit.
	hiIdx = run.End + 1
	for hiIdx < len(g) && g[hiIdx] > 1.02 && g[hiIdx] < threshold && g[hiIdx] <= g[hiIdx-1] {
		hiIdx++
	}
	hiIdx++ // include the first plateau point
	if hiIdx >= nSizes {
		hiIdx = nSizes - 1
	}
	return loIdx, hiIdx
}

// levelRuns segments the gradient into cache-level transitions,
// dropping isolated low-amplitude blips (width-1 runs below sharpMin,
// except the first run, which is always the L1).
//
// The first run gets special treatment: below the L1 size every
// traversal hits the L1, so the gradient is exactly flat and the first
// threshold crossing is necessarily the (one-step, virtually-indexed)
// L1 transition. When the L2 is small enough that its smeared
// transition begins immediately (no plateau — e.g. a 256 KB L2 behind
// a 32 KB L1), the two merge into one contiguous run; the remainder of
// the first run past its first index is therefore split off as the
// next level's transition.
func levelRuns(g []float64, opt Options) []stats.Run {
	runs := stats.FindRuns(g, opt.GradientThreshold, opt.PeakMin)
	if len(runs) > 0 && runs[0].Width() > 1 {
		first := runs[0]
		l1 := stats.Run{Start: first.Start, End: first.Start, Peak: first.Start, Max: g[first.Start]}
		tail := stats.Run{Start: first.Start + 1, End: first.End}
		tail.Peak = tail.Start
		for i := tail.Start; i <= tail.End; i++ {
			if g[i] > tail.Max {
				tail.Max = g[i]
				tail.Peak = i
			}
		}
		runs = append([]stats.Run{l1, tail}, runs[1:]...)
	}
	kept := runs[:0]
	for i, run := range runs {
		if i > 0 && run.Width() == 1 && run.Max < sharpMin {
			continue
		}
		kept = append(kept, run)
	}
	return kept
}

// dedupLevels drops detections that are inconsistent with a strictly
// growing hierarchy: a level whose size does not exceed its
// predecessor's is a re-detection of the same physical cache (its
// window overlapped the same transition), so the later, better-aimed
// fit wins.
func dedupLevels(levels []DetectedCache) []DetectedCache {
	var out []DetectedCache
	for _, l := range levels {
		for len(out) > 0 && l.SizeBytes <= out[len(out)-1].SizeBytes {
			out = out[:len(out)-1]
		}
		out = append(out, l)
	}
	for i := range out {
		out[i].Level = i + 1
	}
	return out
}

// DetectCacheSizes implements the Fig. 4 driver on fixed mcalibrator
// outputs: every gradient run is one cache level. The first run is the
// L1 (virtually indexed, so the peak position is the size); later runs
// confined to a single array size indicate page coloring and are read
// directly; wider runs go through the probabilistic estimator over the
// transition window of the raw curve. It is the in-suite cache-size
// probe's pipeline, whose probe cost Table I pins.
func DetectCacheSizes(cal Calibration, pageBytes int64, opt Options) []DetectedCache {
	levels, _ := detectLevels(cal, pageBytes, opt.withDefaults(nil), func(loIdx, hiIdx int) ([]int64, []float64, error) {
		return cal.Sizes[loIdx : hiIdx+1], cal.Cycles[loIdx : hiIdx+1], nil
	})
	return levels
}

// DetectCaches is the adaptive standalone pipeline: run mcalibrator
// over the standard grid on the given core, then re-measure each
// smeared transition window on a refined size grid (midpoints
// included) with three times the allocations, and fit the
// probabilistic estimator on the refined series. Physically indexed
// caches with few page sets (small capacities) give noisy
// single-allocation miss rates; the refinement buys the estimator the
// statistics it needs. The returned calibration is the raw grid curve,
// with the refinement's cost added to its ProbeCycles. Cancelling the
// context aborts the calibration or refinement sweep between
// measurements.
func DetectCaches(ctx context.Context, m *topology.Machine, coreID int, opt Options) ([]DetectedCache, Calibration, error) {
	opt = opt.withDefaults(m)
	cal, err := McalibratorContext(ctx, m, coreID, opt)
	if err != nil {
		return nil, Calibration{}, err
	}
	levels, err := detectLevels(cal, m.PageBytes, opt, func(loIdx, hiIdx int) ([]int64, []float64, error) {
		return refineWindow(ctx, m, coreID, &cal, opt, loIdx, hiIdx)
	})
	if err != nil {
		return nil, Calibration{}, err
	}
	return levels, cal, nil
}

// detectLevels is the Fig. 4 loop both pipelines share: one level per
// gradient run of the calibration curve, with window supplying the
// (sizes, cycles) series the probabilistic estimator fits for a wide
// run's transition window [loIdx, hiIdx]. opt must be default-filled.
func detectLevels(cal Calibration, pageBytes int64, opt Options, window func(loIdx, hiIdx int) ([]int64, []float64, error)) ([]DetectedCache, error) {
	g := stats.Gradient(cal.Cycles)
	var out []DetectedCache
	for i, run := range levelRuns(g, opt) {
		level := i + 1
		switch {
		case i == 0:
			out = append(out, DetectedCache{
				Level: level, SizeBytes: cal.Sizes[run.Peak], Method: "gradient",
			})
		case run.Width() == 1:
			out = append(out, DetectedCache{
				Level: level, SizeBytes: cal.Sizes[run.Start], Method: "gradient",
			})
		default:
			loIdx, hiIdx := transitionWindow(g, run, opt.GradientThreshold, len(cal.Sizes))
			sizes, cycles, err := window(loIdx, hiIdx)
			if err != nil {
				return nil, err
			}
			size := ProbabilisticSize(sizes, cycles, pageBytes)
			if size == 0 {
				continue
			}
			out = append(out, DetectedCache{
				Level: level, SizeBytes: size, Method: "probabilistic",
			})
		}
	}
	return dedupLevels(out), nil
}

// refineWindow re-measures a transition window on a denser size grid
// (grid points plus page-aligned midpoints) with 3x the allocations,
// returning the refined series. The refined sizes are sharded over
// sched.Sweep like the main grid, each worker owning one
// pooled instance reset in place per (size, allocation) under the
// refinement's own key family, so refined measurements never alias
// the grid sweep's placements and the refined series is
// byte-identical at any Options.Parallelism. Probe cost is accounted
// into the calibration in size order.
func refineWindow(ctx context.Context, m *topology.Machine, coreID int, cal *Calibration, opt Options, loIdx, hiIdx int) ([]int64, []float64, error) {
	pageBytes := m.PageBytes
	var sizes []int64
	for i := loIdx; i <= hiIdx; i++ {
		sizes = append(sizes, cal.Sizes[i])
		if i < hiIdx {
			mid := (cal.Sizes[i] + cal.Sizes[i+1]) / 2
			mid -= mid % pageBytes
			if mid > cal.Sizes[i] && mid < cal.Sizes[i+1] {
				sizes = append(sizes, mid)
			}
		}
	}
	allocs := 3 * opt.Allocations
	tr := obs.FromContext(ctx)
	samples, err := sched.Sweep(ctx, "mcal-refine", len(sizes), opt.Parallelism,
		func() (*memsys.Instance, error) { return memsys.NewInstanceAt(m, opt.Seed), nil },
		func(in *memsys.Instance, i int) (mcalSample, error) {
			var s mcalSample
			for a := 0; a < allocs; a++ {
				// The window's loIdx joins the key: indices are local to the
				// window, and without it a second smeared transition (an L3
				// behind a fuzzy L2) would replay the first window's
				// placement stream instead of drawing independent samples.
				in.ResetAt(opt.Seed, noiseMcalRefine, int64(coreID), int64(loIdx), int64(i), int64(a))
				sp := in.NewSpace()
				arr := sp.Alloc(sizes[i])
				var total float64
				s.avg += traverse(tr, in, coreID, sp, arr, opt.StrideBytes, opt.Passes, &total)
				s.total += total
			}
			return s, nil
		})
	if err != nil {
		return nil, nil, err
	}
	cycles := make([]float64, len(sizes))
	for i, s := range samples {
		cal.ProbeCycles += s.total
		cycles[i] = s.avg / float64(allocs)
	}
	return sizes, cycles, nil
}

// NaiveCacheSizes is the baseline the paper argues against (Section
// III-A): read every cache size straight off the gradient peaks,
// without the probabilistic correction. On machines with physically
// indexed caches and no page coloring it reports wrong sizes (e.g.
// 1 MB instead of 2 MB on Dempsey); it exists for the ablation
// experiment.
func NaiveCacheSizes(cal Calibration, opt Options) []DetectedCache {
	opt = opt.withDefaults(nil)
	g := stats.Gradient(cal.Cycles)
	var out []DetectedCache
	for i, run := range levelRuns(g, opt) {
		out = append(out, DetectedCache{
			Level: i + 1, SizeBytes: cal.Sizes[run.Peak], Method: "gradient-peak",
		})
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
