package core

import (
	"context"

	"servet/internal/memsys"
	"servet/internal/report"
	"servet/internal/sched"
	"servet/internal/stats"
	"servet/internal/topology"
)

// memProbeBytes is the traffic each bandwidth measurement nominally
// moves, used only to account the probe's simulated running time.
const memProbeBytes = 16 * topology.MB

// MemoryOverheadContext implements the Fig. 6 benchmark: measure the
// STREAM-copy bandwidth of an isolated core (the reference), then of
// one core of every pair while both access memory concurrently.
// Bandwidths below the reference are clustered into overhead levels
// (first-match within SimilarTol, exactly as the paper's algorithm
// appends to BW/Pm); each level's pairs are folded into core groups
// and one group per level is swept to produce the effective-bandwidth
// scalability curve of Fig. 9(b). The returned simulated-probe
// duration accounts for the traffic the measurements would move.
//
// The O(cores²) pair sweep runs through sched.Sweep at parallelism
// cheapSweep, whatever Options.Parallelism says, and cancelling the
// context aborts it between measurements. The sweep records only raw
// bandwidths into its slots (slot 0 the isolated reference, slot 1+i
// pair i), while the order-sensitive probe-time float sum, the
// stateless noise perturbation, the overhead-level clustering and the
// scalability curves all run in a sequential merge in measurement
// order.
func MemoryOverheadContext(ctx context.Context, m *topology.Machine, opt Options) (report.MemoryResult, float64, error) {
	opt = opt.withDefaults(m)
	var probeNS float64

	pairs := allNodePairs(m)
	raw, err := sched.Sweep(ctx, "mem", 1+len(pairs), cheapSweep, nil, func(_ struct{}, i int) (float64, error) {
		if i == 0 {
			return memsys.StreamBandwidth(m, 0, []int{0}), nil
		}
		p := pairs[i-1]
		return memsys.StreamBandwidth(m, p[0], []int{p[0], p[1]}), nil
	})
	if err != nil {
		return report.MemoryResult{}, 0, err
	}

	// account charges the traffic of one measurement to the probe's
	// simulated running time: copying memProbeBytes at bw GB/s
	// (1 GB/s = 1 byte/ns).
	account := func(bw float64) {
		probeNS += float64(memProbeBytes) / bw
	}
	// perturb draws each bandwidth sample's noise statelessly under the
	// given measurement keys (see perturbAt), so the noise a sample
	// receives identifies what was measured, not when.
	perturb := func(bw float64, keys ...int64) float64 {
		return perturbAt(bw, opt.NoiseSigma, opt.Seed, append([]int64{noiseMemory}, keys...)...)
	}

	// Sequential merge in measurement order: reference first, then the
	// pairs, clustered exactly as the paper's n/BW/Pm loop.
	account(raw[0])
	res := report.MemoryResult{RefBandwidthGBs: perturb(raw[0], memNoiseRef)}
	ref := res.RefBandwidthGBs

	var bws []float64
	var pairsPerLevel [][][2]int
	for i, p := range pairs {
		account(raw[1+i])
		bw := perturb(raw[1+i], memNoisePair, int64(p[0]), int64(p[1]))
		if bw >= ref || stats.Similar(bw, ref, opt.SimilarTol) {
			continue // no overhead
		}
		placed := false
		for li, level := range bws {
			if stats.Similar(bw, level, opt.SimilarTol) {
				pairsPerLevel[li] = append(pairsPerLevel[li], p)
				placed = true
				break
			}
		}
		if !placed {
			bws = append(bws, bw)
			pairsPerLevel = append(pairsPerLevel, [][2]int{p})
		}
	}

	// The scalability curves depend on the clustering above, so they
	// stay in the sequential merge; measure folds raw measurement,
	// accounting and noise for them.
	measure := func(core int, active []int, keys ...int64) float64 {
		bw := memsys.StreamBandwidth(m, core, active)
		account(bw)
		return perturb(bw, keys...)
	}
	for i, bw := range bws {
		lvl := report.OverheadLevel{
			BandwidthGBs: bw,
			Pairs:        pairsPerLevel[i],
			Groups:       stats.Components(pairsPerLevel[i]),
		}
		lvl.Scalability = scaleGroup(m, lvl, i, measure)
		res.Levels = append(res.Levels, lvl)
	}
	return res, probeNS, nil
}

// scaleGroup measures the effective bandwidth while activating the
// cores of one group of the overhead level one at a time. Cores are
// added in an order that exercises this level's collisions first: the
// representative core (first of the first pair), then its partners in
// the level's pair list, then the rest of the group.
func scaleGroup(m *topology.Machine, lvl report.OverheadLevel, levelIdx int, measure func(int, []int, ...int64) float64) []report.ScalPoint {
	if len(lvl.Groups) == 0 {
		return nil
	}
	group := lvl.Groups[0]
	rep := lvl.Pairs[0][0]
	order := []int{rep}
	seen := map[int]bool{rep: true}
	for _, p := range lvl.Pairs {
		var partner int
		switch {
		case p[0] == rep:
			partner = p[1]
		case p[1] == rep:
			partner = p[0]
		default:
			continue
		}
		if !seen[partner] {
			order = append(order, partner)
			seen[partner] = true
		}
	}
	for _, c := range group {
		if !seen[c] {
			order = append(order, c)
			seen[c] = true
		}
	}

	var points []report.ScalPoint
	for n := 1; n <= len(order); n++ {
		active := order[:n]
		per := measure(rep, active, memNoiseScal, int64(levelIdx), int64(n))
		// Sum the shares in active order: map iteration would add the
		// floats in per-run random order, and float addition is not
		// associative, so the aggregate could differ between runs.
		shares := memsys.FairShare(m, active)
		agg := 0.0
		for _, c := range active {
			agg += shares[c]
		}
		points = append(points, report.ScalPoint{
			Cores:        n,
			PerCoreGBs:   per,
			AggregateGBs: agg,
		})
	}
	return points
}
