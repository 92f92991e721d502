package core

import (
	"context"
	"fmt"

	"servet/internal/mpisim"
	"servet/internal/report"
	"servet/internal/sched"
	"servet/internal/stats"
	"servet/internal/topology"
)

// CommunicationCostsContext implements the Fig. 7 benchmark and its two
// follow-ups. First it measures the one-way latency of an L1-sized
// message between every pair of cluster cores and clusters the pairs
// into communication layers (first-match within SimilarTol, as the
// paper's L/Pl arrays). Then, per layer, it micro-benchmarks a
// representative pair across message sizes (Fig. 10(c)/(d)) and
// measures the layer's scalability by sending concurrent messages over
// a maximal matching of its pairs (Fig. 10(b)).
//
// messageBytes is the probe message size; the suite passes the
// detected L1 capacity, "because it allows to find differences in
// communications when sharing other cache levels".
//
// The returned float64 is the virtual time (ns) the probes consumed on
// the simulated cluster. Cancelling the context aborts the sweep
// between measurements.
//
// Both phases run through sched.Sweep at parallelism cheapSweep,
// whatever Options.Parallelism says: the O(n²) pair sweep, and the
// per-layer bandwidth and scalability micro-benchmarks as one
// measurement per layer. The sweeps only record raw latencies into
// their slots; probe-cost accounting, noise perturbation and layer
// clustering all happen in a sequential merge over the measurements in
// pair order, and noise is drawn statelessly per measurement
// (perturbAt).
func CommunicationCostsContext(ctx context.Context, m *topology.Machine, messageBytes int64, opt Options) (report.CommResult, float64, error) {
	opt = opt.withDefaults(m)
	if messageBytes <= 0 {
		return report.CommResult{}, 0, fmt.Errorf("core: message size must be positive")
	}
	res := report.CommResult{MessageBytes: messageBytes}
	var probeNS float64

	layerSizes := opt.LayerSizes
	if len(layerSizes) == 0 {
		layerSizes = []int64{messageBytes}
	}

	// Every cluster core pair, in the canonical (a, b) order the layer
	// clustering below consumes.
	total := m.TotalCores()
	pairs := make([][2]int, 0, total*(total-1)/2)
	for a := 0; a < total; a++ {
		for b := a + 1; b < total; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}

	// Phase 1: the pair sweep. Ping-pong worlds are deterministic and,
	// beyond the message, parameterized only by the pair's two directed
	// channels, so pairs of the same mpisim.PairClass produce bitwise-
	// identical latencies (pinned by TestPingPongClassParity). Measure
	// one representative per class — the first pair of the class, in
	// pair order — and share its raw vector with every pair of the
	// class. The sweep measures the representatives; everything
	// downstream (probe accounting, per-pair noise, clustering) still
	// runs over all pairs in pair order, so results are byte-identical
	// to the historical all-pairs sweep.
	classIdx := make(map[[2]int]int)
	classOf := make([]int, len(pairs))
	var reps [][2]int // representative pair per class, first-appearance order
	for i, p := range pairs {
		pc := mpisim.PairClass(m, p[0], p[1])
		ci, ok := classIdx[pc]
		if !ok {
			ci = len(reps)
			classIdx[pc] = ci
			reps = append(reps, p)
		}
		classOf[i] = ci
	}
	repLats, err := sched.Sweep(ctx, "pairs", len(reps), cheapSweep, nil, func(_ struct{}, i int) ([]float64, error) {
		a, b := reps[i][0], reps[i][1]
		vec := make([]float64, len(layerSizes))
		for si, size := range layerSizes {
			l, err := mpisim.PingPongOneWayNS(m, a, b, size, opt.CommReps)
			if err != nil {
				return nil, fmt.Errorf("core: ping-pong %d<->%d: %w", a, b, err)
			}
			vec[si] = l
		}
		return vec, nil
	})
	if err != nil {
		return res, probeNS, err
	}
	rawLats := make([][]float64, len(pairs))
	for i := range pairs {
		rawLats[i] = repLats[classOf[i]]
	}

	// Merge in pair order: account probe costs, perturb, and cluster
	// pairs into layers (first-match within SimilarTol across every
	// layer size).
	similarVec := func(a, b []float64) bool {
		for i := range a {
			if !stats.Similar(a[i], b[i], opt.SimilarTol) {
				return false
			}
		}
		return true
	}
	var lats [][]float64 // latency vector per layer, one entry per layer size
	var pairsPerLayer [][][2]int
	for i, raw := range rawLats {
		vec := make([]float64, len(raw))
		for si, l := range raw {
			probeNS += l * float64(2*(opt.CommReps+1))
			vec[si] = perturbAt(l, opt.NoiseSigma, opt.Seed, noiseComm, commNoiseLatency, int64(i), int64(si))
		}
		placed := false
		for li, rep := range lats {
			if similarVec(vec, rep) {
				pairsPerLayer[li] = append(pairsPerLayer[li], pairs[i])
				placed = true
				break
			}
		}
		if !placed {
			lats = append(lats, vec)
			pairsPerLayer = append(pairsPerLayer, [][2]int{pairs[i]})
		}
	}

	// Phase 2: per-layer micro-benchmarks — the bandwidth and
	// scalability sweeps of one layer are one measurement of a sweep
	// over the layers. The matchings are deterministic functions of the
	// (already fixed) layer pair lists.
	matchings := make([][][2]int, len(lats))
	counts := make([][]int, len(lats))
	for i, pp := range pairsPerLayer {
		matchings[i] = stats.GreedyMatching(pp)
		counts[i] = scalCounts(len(matchings[i]))
	}
	type layerRaw struct {
		bw   []float64
		scal []float64
	}
	layerRaws, err := sched.Sweep(ctx, "layer", len(lats), cheapSweep, nil, func(_ struct{}, i int) (layerRaw, error) {
		rep := pairsPerLayer[i][0]
		raw := layerRaw{
			bw:   make([]float64, len(opt.BWSizes)),
			scal: make([]float64, len(counts[i])),
		}
		// One layer's measurement is itself a loop of micro-benchmarks;
		// keep cancellation at micro-benchmark granularity rather than
		// whole-layer (a single-layer machine would otherwise only see
		// the context once, before the entire phase).
		for j, size := range opt.BWSizes {
			if err := ctx.Err(); err != nil {
				return layerRaw{}, err
			}
			oneWay, err := mpisim.PingPongOneWayNS(m, rep[0], rep[1], size, opt.CommReps)
			if err != nil {
				return layerRaw{}, fmt.Errorf("core: bandwidth sweep %v: %w", rep, err)
			}
			raw.bw[j] = oneWay
		}
		name := mpisim.ChannelNameBetween(m, rep[0], rep[1])
		for k, n := range counts[i] {
			if err := ctx.Err(); err != nil {
				return layerRaw{}, err
			}
			mean, err := mpisim.ConcurrentMeanCompletionNS(m, matchings[i][:n], messageBytes)
			if err != nil {
				return layerRaw{}, fmt.Errorf("core: scalability %s n=%d: %w", name, n, err)
			}
			raw.scal[k] = mean
		}
		return raw, nil
	})
	if err != nil {
		return res, probeNS, err
	}

	// Merge in layer order, accounting and perturbing each layer's
	// bandwidth points before its scalability points — the accumulation
	// order of the original sequential sweep.
	for i, latVec := range lats {
		pp := pairsPerLayer[i]
		rep := pp[0]
		layer := report.CommLayer{
			Name:           mpisim.ChannelNameBetween(m, rep[0], rep[1]),
			LatencyUS:      latVec[0] / 1000,
			Pairs:          pp,
			Representative: rep,
		}
		for j, size := range opt.BWSizes {
			oneWay := layerRaws[i].bw[j]
			probeNS += oneWay * float64(2*(opt.CommReps+1))
			oneWay = perturbAt(oneWay, opt.NoiseSigma, opt.Seed, noiseComm, commNoiseBandwidth, int64(i), int64(j))
			layer.Bandwidth = append(layer.Bandwidth, report.BWPoint{
				Bytes:    size,
				OneWayUS: oneWay / 1000,
				GBs:      float64(size) / oneWay,
			})
		}
		var single float64
		for k, n := range counts[i] {
			mean := layerRaws[i].scal[k]
			probeNS += mean * float64(n)
			mean = perturbAt(mean, opt.NoiseSigma, opt.Seed, noiseComm, commNoiseScalability, int64(i), int64(k))
			if n == 1 {
				single = mean
			}
			layer.Scalability = append(layer.Scalability, report.CommScalPoint{
				Messages:         n,
				MeanCompletionUS: mean / 1000,
				Slowdown:         slowdownVs(mean, single),
			})
		}
		res.Layers = append(res.Layers, layer)
	}
	return res, probeNS, nil
}

// slowdownVs returns mean relative to the single-message baseline,
// guarding the division: a degenerate layer with a zero or unset
// baseline reports 0 instead of emitting NaN/Inf into the JSON report.
func slowdownVs(mean, single float64) float64 {
	if single <= 0 {
		return 0
	}
	return mean / single
}

// scalCounts picks the concurrency levels of the scalability sweep:
// powers of two up to the matching size, plus the full matching.
func scalCounts(max int) []int {
	var out []int
	for n := 1; n < max; n *= 2 {
		out = append(out, n)
	}
	if max >= 1 {
		out = append(out, max)
	}
	// Deduplicate the final element if max is itself a power of two.
	if len(out) >= 2 && out[len(out)-1] == out[len(out)-2] {
		out = out[:len(out)-1]
	}
	return out
}
