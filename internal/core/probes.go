package core

import (
	"context"
	"time"

	"servet/internal/report"
)

// registry holds the probes: the four paper benchmarks (Sections
// III-A to III-D) plus the TLB extension, in the paper's stage order.
// That order is canonical: it fixes the run, merge and timing order
// of the report, so every probe's dependencies come before it.
var registry = []Probe{cacheSizeProbe{}, sharedCachesProbe{}, memoryOverheadProbe{}, commCostsProbe{}, tlbProbe{}}

// cacheSizeProbe runs mcalibrator on core 0 and the Fig. 4 driver on
// the raw curve (Section III-A), without the standalone DetectCaches
// refinement: this sequence's simulated probe cost is what Table I
// pins.
type cacheSizeProbe struct{}

func (cacheSizeProbe) Name() string   { return probeCacheSize }
func (cacheSizeProbe) Deps() []string { return nil }

func (cacheSizeProbe) Run(ctx context.Context, env *Env) (Partial, error) {
	cal, err := McalibratorContext(ctx, env.Machine, 0, env.Opt)
	if err != nil {
		return Partial{}, err
	}
	levels := DetectCacheSizes(cal, env.Machine.PageBytes, env.Opt)
	if len(levels) == 0 {
		return Partial{}, &NoCacheLevelsError{Machine: env.Machine.Name}
	}
	return Partial{
		Apply: func(r *report.Report) {
			for _, lvl := range levels {
				r.Caches = append(r.Caches, report.CacheResult{
					Level:     lvl.Level,
					SizeBytes: lvl.SizeBytes,
					Method:    lvl.Method,
				})
			}
		},
		SimulatedProbe: time.Duration(env.Machine.CyclesToNS(cal.ProbeCycles)),
		Value:          levels,
	}, nil
}

// scope: mcalibrator grid, traversal and gradient-detection options.
func (cacheSizeProbe) scope(o Options) any {
	return struct {
		Seed                         int64
		NoiseSigma                   float64
		MinCacheBytes, MaxCacheBytes int64
		StrideBytes                  int64
		Passes, Allocations          int
		GradientThreshold, PeakMin   float64
	}{o.Seed, o.NoiseSigma, o.MinCacheBytes, o.MaxCacheBytes,
		o.StrideBytes, o.Passes, o.Allocations, o.GradientThreshold, o.PeakMin}
}

// restore rebuilds the detected levels from the report's cache
// section (sizes, levels and methods round-trip losslessly; the raw
// calibration curve is not persisted and dependent probes do not
// consume it).
func (cacheSizeProbe) restore(r *report.Report) (Partial, bool) {
	if len(r.Caches) == 0 {
		return Partial{}, false
	}
	levels := make([]DetectedCache, len(r.Caches))
	for i, c := range r.Caches {
		levels[i] = DetectedCache{Level: c.Level, SizeBytes: c.SizeBytes, Method: c.Method}
	}
	return Partial{
		Apply: func(r2 *report.Report) {
			for _, lvl := range levels {
				r2.Caches = append(r2.Caches, report.CacheResult{
					Level:     lvl.Level,
					SizeBytes: lvl.SizeBytes,
					Method:    lvl.Method,
				})
			}
		},
		Value: levels,
	}, true
}

// sharedCachesProbe determines which cores share each detected cache
// (Section III-B).
type sharedCachesProbe struct{}

func (sharedCachesProbe) Name() string   { return probeShared }
func (sharedCachesProbe) Deps() []string { return []string{probeCacheSize} }

func (sharedCachesProbe) Run(ctx context.Context, env *Env) (Partial, error) {
	levels, err := env.CacheLevels()
	if err != nil {
		return Partial{}, err
	}
	shared, err := SharedCachesContext(ctx, env.Machine, levels, env.Opt)
	if err != nil {
		return Partial{}, err
	}
	var cycles float64
	for i := range levels {
		if i < len(shared) {
			cycles += shared[i].ProbeCycles
		}
	}
	return Partial{
		Apply: func(r *report.Report) {
			// The cache-size probe merges before this one (it is a
			// dependency, hence earlier in registry order), so the
			// level entries already exist.
			for i := range r.Caches {
				if i < len(shared) {
					r.Caches[i].SharedGroups = shared[i].Groups
				}
			}
		},
		SimulatedProbe: time.Duration(env.Machine.CyclesToNS(cycles)),
		Value:          shared,
	}, nil
}

// scope: the Fig. 5 concurrent-traversal options, including the
// per-measurement allocation count the sweep averages over. The probe
// also consumes the cache-size probe's output, but dependency
// freshness is the cache walk's job (Suite.Run), not the digest's.
func (sharedCachesProbe) scope(o Options) any {
	return struct {
		Seed           int64
		NoiseSigma     float64
		StrideBytes    int64
		Passes         int
		Allocations    int
		RatioThreshold float64
	}{o.Seed, o.NoiseSigma, o.StrideBytes, o.Passes, o.Allocations, o.RatioThreshold}
}

// restore rebuilds the sharing groups from the report's cache
// section. A report with detected levels but no sharing groups is a
// valid restoration target: the probe legitimately finds every cache
// private on some machines.
func (sharedCachesProbe) restore(r *report.Report) (Partial, bool) {
	if len(r.Caches) == 0 {
		return Partial{}, false
	}
	groups := make([][][]int, len(r.Caches))
	for i, c := range r.Caches {
		groups[i] = c.SharedGroups
	}
	return Partial{
		Apply: func(r2 *report.Report) {
			for i := range r2.Caches {
				if i < len(groups) {
					r2.Caches[i].SharedGroups = groups[i]
				}
			}
		},
	}, true
}

// memoryOverheadProbe characterizes concurrent memory-access
// overheads (Section III-C). It needs no other probe's output.
type memoryOverheadProbe struct{}

func (memoryOverheadProbe) Name() string   { return probeMemory }
func (memoryOverheadProbe) Deps() []string { return nil }

func (memoryOverheadProbe) Run(ctx context.Context, env *Env) (Partial, error) {
	memRes, memNS, err := MemoryOverheadContext(ctx, env.Machine, env.Opt)
	if err != nil {
		return Partial{}, err
	}
	return Partial{
		Apply:          func(r *report.Report) { r.Memory = memRes },
		SimulatedProbe: time.Duration(memNS),
		Value:          memRes,
	}, nil
}

// scope: the Fig. 6 bandwidth-characterization options.
func (memoryOverheadProbe) scope(o Options) any {
	return struct {
		Seed       int64
		NoiseSigma float64
		SimilarTol float64
	}{o.Seed, o.NoiseSigma, o.SimilarTol}
}

// restore rebuilds the memory section from the report.
func (memoryOverheadProbe) restore(r *report.Report) (Partial, bool) {
	if r.Memory.RefBandwidthGBs <= 0 {
		// A ran probe always records the (validated positive) reference
		// bandwidth; zero means the section was never filled.
		return Partial{}, false
	}
	memRes := r.Memory
	return Partial{
		Apply: func(r2 *report.Report) { r2.Memory = memRes },
		Value: memRes,
	}, true
}

// commCostsProbe characterizes the communication layers (Section
// III-D) using the detected L1 size as message size — the dependency
// on the cache-size probe the legacy sequential suite expressed only
// by statement order.
type commCostsProbe struct{}

func (commCostsProbe) Name() string   { return probeComm }
func (commCostsProbe) Deps() []string { return []string{probeCacheSize} }

func (commCostsProbe) Run(ctx context.Context, env *Env) (Partial, error) {
	// The cache-size probe fails with NoCacheLevelsError rather than
	// complete with an empty slice, so levels is never empty here.
	levels, err := env.CacheLevels()
	if err != nil {
		return Partial{}, err
	}
	commRes, commNS, err := CommunicationCostsContext(ctx, env.Machine, levels[0].SizeBytes, env.Opt)
	if err != nil {
		return Partial{}, err
	}
	return Partial{
		Apply:          func(r *report.Report) { r.Comm = commRes },
		SimulatedProbe: time.Duration(commNS),
		Value:          commRes,
	}, nil
}

// scope: the Fig. 7 ping-pong and sweep options.
func (commCostsProbe) scope(o Options) any {
	return struct {
		Seed       int64
		NoiseSigma float64
		SimilarTol float64
		CommReps   int
		BWSizes    []int64
		LayerSizes []int64
	}{o.Seed, o.NoiseSigma, o.SimilarTol, o.CommReps, o.BWSizes, o.LayerSizes}
}

// restore rebuilds the communication section from the report. A ran
// probe always records a positive message size (the detected L1); an
// empty layer list is legitimate on unicore machines, which have no
// core pairs to characterize.
func (commCostsProbe) restore(r *report.Report) (Partial, bool) {
	if r.Comm.MessageBytes <= 0 {
		return Partial{}, false
	}
	commRes := r.Comm
	return Partial{
		Apply: func(r2 *report.Report) { r2.Comm = commRes },
		Value: commRes,
	}, true
}

// tlbProbe is the TLB extension probe. It is in the registry (so
// -probes can request it) but not part of DefaultProbes: the paper's suite is
// the four stages above.
type tlbProbe struct{}

func (tlbProbe) Name() string   { return probeTLB }
func (tlbProbe) Deps() []string { return nil }

func (tlbProbe) Run(ctx context.Context, env *Env) (Partial, error) {
	res, ok, err := DetectTLB(ctx, env.Machine, 0, env.Opt)
	if err != nil {
		return Partial{}, err
	}
	return Partial{
		Apply: func(r *report.Report) {
			if ok {
				r.TLB = &report.TLBResult{Entries: res.Entries, MissCycles: res.MissCycles}
			}
		},
		SimulatedProbe: time.Duration(env.Machine.CyclesToNS(res.ProbeCycles)),
		Value:          res,
	}, nil
}

// scope: the traversal and gradient-detection options the TLB sweep
// reads.
func (tlbProbe) scope(o Options) any {
	return struct {
		Seed                       int64
		NoiseSigma                 float64
		Passes                     int
		GradientThreshold, PeakMin float64
	}{o.Seed, o.NoiseSigma, o.Passes, o.GradientThreshold, o.PeakMin}
}

// restore rebuilds the TLB section from the report. A nil TLB section
// is restorable: it is exactly what the probe reports on machines
// without a detectable TLB (provenance, not section presence, tells
// the cache the probe ran).
func (tlbProbe) restore(r *report.Report) (Partial, bool) {
	var res *report.TLBResult
	if r.TLB != nil {
		cp := *r.TLB
		res = &cp
	}
	return Partial{
		Apply: func(r2 *report.Report) {
			if res != nil {
				cp := *res
				r2.TLB = &cp
			}
		},
	}, true
}
