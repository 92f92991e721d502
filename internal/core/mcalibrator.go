package core

import (
	"context"

	"servet/internal/memsys"
	"servet/internal/obs"
	"servet/internal/sched"
	"servet/internal/topology"
)

// Calibration is the output of mcalibrator: the traversed array sizes
// S and the average number of cycles per access C during their
// traversal (Fig. 1 of the paper).
type Calibration struct {
	// Sizes are the traversed array sizes in bytes.
	Sizes []int64
	// Cycles are the average cycles per access for each size.
	Cycles []float64
	// ProbeCycles is the total cycle cost of every access the probe
	// issued, including warm-up — the benchmark's own running time on
	// the simulated machine.
	ProbeCycles float64
}

// SizeGrid reproduces the size schedule of Fig. 1: doubling from min
// up to 2 MB, then growing by 1 MB up to max.
func SizeGrid(min, max int64) []int64 {
	var sizes []int64
	for s := min; s <= max; {
		sizes = append(sizes, s)
		if s < 2*topology.MB {
			s *= 2
		} else {
			s += 1 * topology.MB
		}
	}
	return sizes
}

// mcalSample is one raw mcalibrator measurement: the mean cycles per
// access over a size's allocations and the total simulated cost of
// every access issued.
type mcalSample struct {
	avg   float64
	total float64
}

// McalibratorContext measures the average access cost of strided
// traversals over the size grid, on one core of the machine: the
// Fig. 1 calibration loop, with its size grid sharded through
// sched.Sweep. Sizes are independent measurements, and each (size,
// allocation) measures a memory system whose page placement is seeded
// from (Seed, probe family, core, size index, allocation) — identical
// by construction no matter which worker measures it or in what
// order. Each worker owns one pooled memsys.Instance, reset in place
// per measurement (ResetAt is bitwise-equivalent to building fresh),
// so the sweep allocates nothing in steady state. Each size is
// measured on opt.Allocations freshly placed arrays (physically
// indexed caches behave probabilistically, so one mapping is one
// sample) with one warm-up traversal (the array initialization of
// Fig. 1 warms the cache) and opt.Passes measured traversals, run as
// one traverse: a measured pass that ends in the state it started from
// is simulated once and repeated arithmetically, bit-identical to
// simulating it again. Workers
// record raw cycle counts into disjoint slots; the order-sensitive
// ProbeCycles float sum and the stateless noise perturbation happen
// in a sequential merge in size order, so the calibration is
// byte-identical at any Options.Parallelism.
func McalibratorContext(ctx context.Context, m *topology.Machine, core int, opt Options) (Calibration, error) {
	opt = opt.withDefaults(m)
	sizes := SizeGrid(opt.MinCacheBytes, opt.MaxCacheBytes)
	// The tracer (nil when untraced) counts pooled-instance traffic:
	// fresh builds per worker vs in-place resets per measurement.
	tr := obs.FromContext(ctx)
	samples, err := sched.Sweep(ctx, "mcal", len(sizes), opt.Parallelism,
		func() (*memsys.Instance, error) {
			tr.Count(obs.CounterMemsysFresh, 1)
			return memsys.NewInstanceAt(m, opt.Seed), nil
		},
		func(in *memsys.Instance, i int) (mcalSample, error) {
			s, err := measureMcalSize(ctx, tr, in, core, opt, i, sizes[i])
			if err == nil {
				tr.Count(obs.CounterMemsysReset, int64(opt.Allocations))
			}
			return s, err
		})
	if err != nil {
		return Calibration{}, err
	}

	// Sequential merge in size order.
	cal := Calibration{Sizes: sizes, Cycles: make([]float64, len(sizes))}
	for i, s := range samples {
		cal.ProbeCycles += s.total
		cal.Cycles[i] = perturbAt(s.avg, opt.NoiseSigma, opt.Seed, noiseMcal, int64(core), int64(i))
	}
	return cal, nil
}

// measureMcalSize measures one point of the mcalibrator size grid on
// a pooled instance: opt.Allocations independent placements, each
// resetting the instance to exactly the state a fresh per-(size,
// allocation) instance would have. Allocation-free on a warm
// instance. The tracer is the sweep's, so a measurement makes no
// context lookup beyond its cancellation checks.
func measureMcalSize(ctx context.Context, tr *obs.Tracer, in *memsys.Instance, core int, opt Options, i int, size int64) (mcalSample, error) {
	var s mcalSample
	for alloc := 0; alloc < opt.Allocations; alloc++ {
		// Each allocation is a full traversal; keep cancellation at
		// that granularity.
		if err := ctx.Err(); err != nil {
			return mcalSample{}, err
		}
		in.ResetAt(opt.Seed, noiseMcal, int64(core), int64(i), int64(alloc))
		sp := in.NewSpace()
		a := sp.Alloc(size)
		var total float64
		s.avg += traverse(tr, in, core, sp, a, opt.StrideBytes, opt.Passes, &total)
		s.total += total
	}
	s.avg /= float64(opt.Allocations)
	return s, nil
}

// traverse walks the array with the probe stride: one warm-up pass and
// `passes` measured passes, adding the cost of every access to *total
// in issue order. It returns the measured average cycles per access.
// The passes run as one memsys.AccessStridePasses call, bit-identical
// to simulating each access: its warm-up over the just-reset caches is
// filled instead of simulated, its first measured pass is derived from
// the fill's per-set line counts, and the passes that repeat a
// steady-state pass are added arithmetically. The tracer (nil when
// untraced) counts the traversal's accesses and how many of them were
// replayed, filled and derived.
func traverse(tr *obs.Tracer, in *memsys.Instance, core int, sp *memsys.Space, a *memsys.Array, stride int64, passes int, total *float64) (avg float64) {
	var measured float64
	counts := in.AccessStridePasses(core, sp, a.Base, a.Bytes, stride, passes, total, &measured)
	perPass := (a.Bytes + stride - 1) / stride
	tr.Count(obs.CounterMemsysAccesses, int64(passes+1)*perPass)
	countPasses(tr, counts)
	n := int64(passes) * perPass
	if n == 0 {
		return 0
	}
	return measured / float64(n)
}

// countPasses adds a measurement's replayed, filled, derived and
// stacked accesses, its install visits, and the pages placed and
// placement retries it reports, to the tracer's counters.
func countPasses(tr *obs.Tracer, c memsys.PassCounts) {
	tr.Count(obs.CounterMemsysReplayed, c.Replayed)
	tr.Count(obs.CounterMemsysFilled, c.Filled)
	tr.Count(obs.CounterMemsysDerived, c.Derived)
	tr.Count(obs.CounterMemsysInstallVisits, c.InstallVisits)
	tr.Count(obs.CounterMemsysStacked, c.Stacked)
	tr.Count(obs.CounterMemsysPagesPlaced, c.Pages)
	tr.Count(obs.CounterMemsysPlacementRetries, c.Retries)
}

// appendTraversalAddrs appends the address sequence of one strided
// traversal to dst — for the concurrent streams of the shared-cache
// benchmark, whose pooled scratch reuses the buffer across
// measurements. A buffer too small for the traversal grows once, to
// its exact length, instead of doubling its way there.
func appendTraversalAddrs(dst []int64, a *memsys.Array, stride int64) []int64 {
	if n := int((a.Bytes + stride - 1) / stride); cap(dst)-len(dst) < n {
		dst = append(make([]int64, 0, len(dst)+n), dst...)
	}
	for off := int64(0); off < a.Bytes; off += stride {
		dst = append(dst, a.Base+off)
	}
	return dst
}
