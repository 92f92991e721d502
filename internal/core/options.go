// Package core implements the Servet benchmark suite itself — the
// paper's contribution: mcalibrator (Fig. 1), the probabilistic
// cache-size estimator (Fig. 3), the cache-level detector (Fig. 4),
// the shared-cache detector (Fig. 5), the memory-access overhead
// characterizer (Fig. 6) and the communication-cost characterizer
// (Fig. 7), plus the orchestration that produces the install-time
// report (Table I).
//
// The probes run against the simulated machines of internal/memsys and
// internal/mpisim; the algorithms themselves are the unchanged ones of
// the paper.
package core

import (
	"math/rand"

	"servet/internal/stats"
	"servet/internal/topology"
)

// cheapSweep is the parallelism of the memory-overhead pair sweep and
// of the communication-costs pair and per-layer sweeps, whatever
// Options.Parallelism says. Their measurements are too cheap for
// fan-out to pay: a traced nehalem2s cold suite spends 15 µs, 263 µs
// and 4.4 ms of its 146 ms in them, and at parallelism 2 on a 2-CPU
// host the memory-overhead sweep ran 1.05× and the communication-costs
// sweep 1.09× faster than sequentially, at more bytes per op.
const cheapSweep = 1

// Options tunes the suite. The zero value means "use the defaults from
// the paper" (1 KB stride, ratio threshold 2, 10% similarity, ...).
type Options struct {
	// MinCacheBytes is the smallest array mcalibrator traverses
	// (default 4 KB).
	MinCacheBytes int64
	// MaxCacheBytes is the largest array (default: the machine's
	// SuggestedMaxProbeBytes, else 48 MB).
	MaxCacheBytes int64
	// StrideBytes is the probe stride (default 1 KB — large enough to
	// defeat prefetchers, divides every cache size).
	StrideBytes int64
	// Passes is the number of measured traversals per array after the
	// warm-up pass (default 2).
	Passes int
	// Allocations is the number of independent allocations averaged
	// per measurement, each with fresh page placement (default 4):
	// physically indexed caches behave probabilistically under random
	// placement, so one mapping is one sample. Both mcalibrator's size
	// grid and the shared-cache (level, pair) sweep average over it.
	Allocations int
	// GradientThreshold is the minimum gradient that belongs to a
	// level transition run (default 1.10).
	GradientThreshold float64
	// PeakMin is the minimum peak gradient for a run to count as a
	// transition (default 1.30).
	PeakMin float64
	// RatioThreshold flags a pair as sharing a cache when its
	// concurrent cycle count exceeds this multiple of the reference
	// (default 2, as in Fig. 5).
	RatioThreshold float64
	// SimilarTol is the relative tolerance of the "similar value"
	// clustering in the overhead and latency benchmarks (default 0.10).
	SimilarTol float64
	// CommReps is the number of measured ping-pong round trips
	// (default 3).
	CommReps int
	// BWSizes are the message sizes of the per-layer bandwidth sweep
	// (default 1 KB ... 4 MB in powers of two).
	BWSizes []int64
	// LayerSizes are the message sizes used to group core pairs into
	// communication layers. The paper notes that "several
	// representative message sizes can be selected for this task" and
	// defaults to one, the L1 size; when more than one size is given,
	// pairs join a layer only if their latencies are similar at every
	// size, which separates channels that happen to coincide at a
	// single probe size. Empty means [message size].
	LayerSizes []int64
	// Parallelism bounds how many measurements each sched.Sweep that
	// pays for fan-out runs concurrently (default 1: fully sequential):
	// the mcalibrator size grid and its refinement, the shared-cache
	// pair sweep and the per-core CalibrateCores loop. The
	// memory-overhead and communication-costs sweeps always run at
	// parallelism 1 (cheapSweep). Probes themselves run one after
	// another in the paper's stage order. The merged report is byte-identical at
	// any parallelism — measurements merge in index order, noise is
	// drawn statelessly per measurement, and memory-system instances
	// are built per measurement from stable keys — only wall times
	// change.
	Parallelism int
	// Seed drives page placement and measurement noise (default 1).
	Seed int64
	// NoiseSigma adds relative Gaussian noise to measurements to
	// exercise the clustering tolerances (default 0: deterministic).
	NoiseSigma float64
}

// withDefaults fills unset fields.
func (o Options) withDefaults(m *topology.Machine) Options {
	if o.MinCacheBytes <= 0 {
		o.MinCacheBytes = 4 * topology.KB
	}
	if o.MaxCacheBytes <= 0 {
		if m != nil && m.SuggestedMaxProbeBytes > 0 {
			o.MaxCacheBytes = m.SuggestedMaxProbeBytes
		} else {
			o.MaxCacheBytes = 48 * topology.MB
		}
	}
	if o.StrideBytes <= 0 {
		o.StrideBytes = 1 * topology.KB
	}
	if o.Passes <= 0 {
		o.Passes = 2
	}
	if o.Allocations <= 0 {
		o.Allocations = 4
	}
	if o.GradientThreshold <= 0 {
		o.GradientThreshold = 1.10
	}
	if o.PeakMin <= 0 {
		o.PeakMin = 1.30
	}
	if o.RatioThreshold <= 0 {
		o.RatioThreshold = 2.0
	}
	if o.SimilarTol <= 0 {
		o.SimilarTol = 0.10
	}
	if o.CommReps <= 0 {
		o.CommReps = 25
	}
	if len(o.BWSizes) == 0 {
		for s := int64(1 * topology.KB); s <= 4*topology.MB; s *= 2 {
			o.BWSizes = append(o.BWSizes, s)
		}
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Noise-family keys: the first key after the seed names the probe
// family a measurement belongs to, so two probes never share a noise
// stream even when their remaining indices coincide.
const (
	noiseMcal int64 = iota + 1
	noiseShared
	noiseMemory
	noiseComm
	// noiseMcalRefine is the refined-window re-measurement's family:
	// refined sizes are indexed by window position, so they need a
	// domain of their own to never collide with the grid sweep's keys.
	noiseMcalRefine
)

// Measurement kinds within the communication-costs family.
const (
	commNoiseLatency int64 = iota
	commNoiseBandwidth
	commNoiseScalability
)

// Measurement kinds within the memory-overhead family.
const (
	memNoiseRef int64 = iota
	memNoisePair
	memNoiseScal
)

// perturbAt returns v scaled by seeded relative Gaussian noise drawn
// statelessly per measurement: the factor is a pure function of
// (seed, keys) — by convention the probe family plus the measured
// pair/size indices — never of how many draws preceded it. A pair's
// perturbation is therefore identical no matter which worker measures
// it or in what order, which keeps noisy reports byte-identical at any
// parallelism. With sigma 0 it is the identity. Values never turn
// negative.
func perturbAt(v, sigma float64, seed int64, keys ...int64) float64 {
	if sigma <= 0 {
		return v
	}
	h := stats.MixKeys(append([]int64{seed}, keys...)...)
	rng := rand.New(rand.NewSource(int64(h)))
	f := 1 + rng.NormFloat64()*sigma
	if f < 0.01 {
		f = 0.01
	}
	return v * f
}
