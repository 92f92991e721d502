package core

import (
	"context"

	"servet/internal/memsys"
	"servet/internal/obs"
	"servet/internal/sched"
	"servet/internal/stats"
	"servet/internal/topology"
)

// PairRatio is the measured cache-overhead ratio of one core pair at
// one cache level (the metric plotted in Fig. 8).
type PairRatio struct {
	// A and B are node-local core ids, A < B.
	A, B int
	// Ratio is the concurrent cycle count divided by the isolated
	// reference.
	Ratio float64
}

// SharedCacheLevel is the result of the Fig. 5 benchmark for one cache
// level.
type SharedCacheLevel struct {
	// Level is the cache level probed.
	Level int
	// ArrayBytes is the per-core array size used ((2/3) of the level's
	// detected capacity, rounded to the probe stride).
	ArrayBytes int64
	// RefCycles is the isolated single-core traversal cost.
	RefCycles float64
	// Ratios holds every probed pair with its overhead ratio.
	Ratios []PairRatio
	// SharedPairs are the pairs whose ratio exceeded the threshold.
	SharedPairs [][2]int
	// Groups are the connected components of SharedPairs: the sets of
	// cores sharing one cache instance.
	Groups [][]int
	// ProbeCycles totals the simulated cost of the level's probes.
	ProbeCycles float64
}

// SharedCachesContext implements the Fig. 5 benchmark: for every
// detected cache level, traverse a (2/3)·CS array on one isolated core
// as reference, then on every pair of node-local cores concurrently; a
// pair whose cycle count is more than ratioThreshold times the
// reference shares the level's cache. Machines with one core have no
// pairs and report every level private. Cancelling the context aborts
// the sweep between measurements.
func SharedCachesContext(ctx context.Context, m *topology.Machine, levels []DetectedCache, opt Options) ([]SharedCacheLevel, error) {
	return SharedCachePairsContext(ctx, m, levels, allNodePairs(m), opt)
}

// allNodePairs lists every pair of node-local cores in the canonical
// (a, b) order the sweep and its noise keys are defined over.
func allNodePairs(m *topology.Machine) [][2]int {
	var pairs [][2]int
	for a := 0; a < m.CoresPerNode; a++ {
		for b := a + 1; b < m.CoresPerNode; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	return pairs
}

// scSample is one raw shared-cache measurement: the mean cycles per
// access observed and the total simulated cost of the accesses issued.
type scSample struct {
	avg   float64
	total float64
}

// scScratch is one worker's pooled measurement state for the Fig. 5
// sweep: the memory-system instance plus the address buffers, stream
// headers and stats of the concurrent traversals, all reused across
// measurements so the steady state allocates nothing. The tracer (nil
// when untraced) counts the concurrent streams' accesses.
type scScratch struct {
	tr      *obs.Tracer
	in      *memsys.Instance
	addrsA  []int64
	addrsB  []int64
	streams [2]memsys.Stream
	stats   [2]memsys.StreamStats
}

// measureRef measures a level's isolated single-core reference
// traversal for one placement, resetting the pooled instance to the
// state a fresh (Seed, family, level, -1, alloc) instance would have.
func (sc *scScratch) measureRef(tr *obs.Tracer, opt Options, level, alloc, ab int64) (avg, total float64) {
	sc.in.ResetAt(opt.Seed, noiseShared, level, -1, alloc)
	sp := sc.in.NewSpace()
	a := sp.Alloc(ab)
	avg = traverse(tr, sc.in, 0, sp, a, opt.StrideBytes, opt.Passes, &total)
	return avg, total
}

// measurePair measures one (level, pair) concurrent traversal for one
// placement on the pooled instance. The two streams run through
// RunConcurrentInto with the scratch's pooled buffers: a pair that
// shares a cache fills its cold warm-up — ResetAt has just emptied
// every cache — and interleaves access by access from the first
// measured access on, simulated only at the levels the pair shares,
// and each stream of a pair that shares none runs alone through the
// steady-state replay. The statistics are
// bit-identical to the historical fresh-instance, fully interleaved
// RunConcurrent path. The scratch's tracer counts the streams'
// accesses and replayed, filled and derived accesses, as traverse
// does.
func (sc *scScratch) measurePair(opt Options, level int64, pi int, pair [2]int, alloc, ab int64) (avg, total float64) {
	sc.in.ResetAt(opt.Seed, noiseShared, level, int64(pi), alloc)
	spA, spB := sc.in.NewSpace(), sc.in.NewSpace()
	arrA, arrB := spA.Alloc(ab), spB.Alloc(ab)
	sc.addrsA = appendTraversalAddrs(sc.addrsA[:0], arrA, opt.StrideBytes)
	sc.addrsB = appendTraversalAddrs(sc.addrsB[:0], arrB, opt.StrideBytes)
	sc.streams[0] = memsys.Stream{Core: pair[0], Space: spA, Addrs: sc.addrsA}
	sc.streams[1] = memsys.Stream{Core: pair[1], Space: spB, Addrs: sc.addrsB}
	passes := opt.Passes + 1
	counts := memsys.RunConcurrentInto(sc.in, sc.streams[:], passes, sc.stats[:])
	sc.tr.Count(obs.CounterMemsysAccesses, int64(passes)*int64(len(sc.addrsA)+len(sc.addrsB)))
	countPasses(sc.tr, counts)
	avg = (sc.stats[0].AvgCycles() + sc.stats[1].AvgCycles()) / 2
	total = sc.stats[0].Cycles + sc.stats[1].Cycles
	return avg, total
}

// SharedCachePairsContext is SharedCachesContext restricted to an
// explicit list of node-local core pairs (the Fig. 8 plots, for
// clarity, only show the pairs containing core 0). It runs the Fig. 5
// sweep sharded through sched.Sweep: every (level, pair)
// measurement — and each level's isolated reference — measures a
// memory system whose page placement is seeded from (Seed, probe
// family, level, pair index), so it is identical by construction no
// matter which worker runs the measurement or in what order. A pair
// that shares no cache runs each of its streams alone through the
// steady-state replay (memsys.RunConcurrentInto), so on most machines
// most pairs cost little more than two isolated traversals. Each
// worker owns one pooled memsys.Instance reset in place per
// measurement (ResetAt is bitwise-equivalent to building fresh), so
// the sweep — historically ~1.9 GB of instance churn — allocates
// nothing in steady state. Workers record only raw cycle counts into
// disjoint slots; noise perturbation, ratio thresholding, component
// grouping and the order-sensitive ProbeCycles float sum all happen
// in a sequential merge in (level, pair) order, which keeps the
// result byte-identical at any Options.Parallelism.
func SharedCachePairsContext(ctx context.Context, m *topology.Machine, levels []DetectedCache, pairs [][2]int, opt Options) ([]SharedCacheLevel, error) {
	opt = opt.withDefaults(m)

	arrayBytes := make([]int64, len(levels))
	for li, lvl := range levels {
		ab := lvl.SizeBytes * 2 / 3
		ab -= ab % opt.StrideBytes
		if ab < opt.StrideBytes {
			ab = opt.StrideBytes
		}
		arrayBytes[li] = ab
	}

	// Measurement plan: per level, slot 0 is the isolated reference on
	// core 0 and slot 1+pi is pair pi. Each measurement is averaged
	// over opt.Allocations independent placements — physically indexed
	// caches behave probabilistically under random page placement, so
	// one mapping is one sample, exactly as in mcalibrator — each built
	// as its own instance keyed by (Seed, family, level, pair, alloc).
	stride := 1 + len(pairs)
	// The tracer (nil when untraced) counts pooled-instance traffic:
	// fresh builds per worker vs in-place resets per placement.
	tr := obs.FromContext(ctx)
	samples, err := sched.Sweep(ctx, "shared", len(levels)*stride, opt.Parallelism,
		func() (*scScratch, error) {
			tr.Count(obs.CounterMemsysFresh, 1)
			return &scScratch{tr: tr, in: memsys.NewInstanceAt(m, opt.Seed)}, nil
		},
		func(sc *scScratch, i int) (scSample, error) {
			li, slot := i/stride, i%stride
			level, ab := int64(levels[li].Level), arrayBytes[li]
			var s scSample
			for alloc := 0; alloc < opt.Allocations; alloc++ {
				// Each allocation is a full concurrent traversal; keep
				// cancellation at that granularity.
				if err := ctx.Err(); err != nil {
					return scSample{}, err
				}
				tr.Count(obs.CounterMemsysReset, 1)
				var avg, total float64
				if slot == 0 {
					avg, total = sc.measureRef(tr, opt, level, int64(alloc), ab)
				} else {
					pi := slot - 1
					avg, total = sc.measurePair(opt, level, pi, pairs[pi], int64(alloc), ab)
				}
				s.avg += avg
				s.total += total
			}
			s.avg /= float64(opt.Allocations)
			return s, nil
		})
	if err != nil {
		return nil, err
	}

	// Sequential merge in (level, pair) order.
	var out []SharedCacheLevel
	for li, lvl := range levels {
		res := SharedCacheLevel{Level: lvl.Level, ArrayBytes: arrayBytes[li]}
		ref := samples[li*stride]
		res.RefCycles = perturbAt(ref.avg, opt.NoiseSigma, opt.Seed, noiseShared, int64(lvl.Level), -1)
		res.ProbeCycles += ref.total
		for pi, pair := range pairs {
			s := samples[li*stride+1+pi]
			c := perturbAt(s.avg, opt.NoiseSigma, opt.Seed, noiseShared, int64(lvl.Level), int64(pi))
			res.ProbeCycles += s.total
			ratio := ratioVs(c, res.RefCycles)
			res.Ratios = append(res.Ratios, PairRatio{A: pair[0], B: pair[1], Ratio: ratio})
			if ratio > ratioThreshold {
				res.SharedPairs = append(res.SharedPairs, pair)
			}
		}
		res.Groups = stats.Components(res.SharedPairs)
		out = append(out, res)
	}
	return out, nil
}

// ratioVs returns the concurrent cycle count relative to the isolated
// reference, guarding the division: a degenerate zero (or negative)
// reference reports 0 instead of emitting NaN/Inf into the JSON
// report, mirroring the communication sweep's slowdownVs.
func ratioVs(concurrent, ref float64) float64 {
	if ref <= 0 {
		return 0
	}
	return concurrent / ref
}

// RatioFor returns the measured ratio of a specific pair, or 0 when
// the pair was not probed.
func (s *SharedCacheLevel) RatioFor(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	for _, r := range s.Ratios {
		if r.A == a && r.B == b {
			return r.Ratio
		}
	}
	return 0
}
