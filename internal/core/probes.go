package core

import (
	"context"
	"time"

	"servet/internal/report"
	"servet/internal/topology"
)

// registry holds the probes: the four paper benchmarks (Sections
// III-A to III-D) plus the TLB extension, in the paper's stage order.
// That order is canonical: it fixes the run, section and timing order
// of the report, so every probe's dependencies come before it.
var registry = []Probe{cacheSizeProbe{}, sharedCachesProbe{}, memoryOverheadProbe{}, commCostsProbe{}, tlbProbe{}}

// cacheSizeProbe runs mcalibrator on core 0 and the Fig. 4 driver on
// the raw curve (Section III-A), without the standalone DetectCaches
// refinement: this sequence's simulated probe cost is what Table I
// pins.
type cacheSizeProbe struct{}

func (cacheSizeProbe) Name() string   { return probeCacheSize }
func (cacheSizeProbe) Deps() []string { return nil }

func (cacheSizeProbe) Run(ctx context.Context, m *topology.Machine, opt Options, r *report.Report) (time.Duration, error) {
	cal, err := McalibratorContext(ctx, m, 0, opt)
	if err != nil {
		return 0, err
	}
	levels := DetectCacheSizes(cal, m.PageBytes, opt)
	if len(levels) == 0 {
		return 0, &NoCacheLevelsError{Machine: m.Name}
	}
	for _, lvl := range levels {
		r.Caches = append(r.Caches, report.CacheResult{Level: lvl.Level, SizeBytes: lvl.SizeBytes, Method: lvl.Method})
	}
	return time.Duration(m.CyclesToNS(cal.ProbeCycles)), nil
}

// cacheLevels returns the levels the cache-size probe wrote into r
// (levels, sizes and methods round-trip losslessly through the
// report).
func cacheLevels(r *report.Report) []DetectedCache {
	levels := make([]DetectedCache, len(r.Caches))
	for i, c := range r.Caches {
		levels[i] = DetectedCache{Level: c.Level, SizeBytes: c.SizeBytes, Method: c.Method}
	}
	return levels
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

// restore copies the detected levels without their sharing groups,
// which belong to the shared-caches probe's section.
func (cacheSizeProbe) restore(dst, src *report.Report) bool {
	if len(src.Caches) == 0 {
		return false
	}
	for _, c := range src.Caches {
		dst.Caches = append(dst.Caches, report.CacheResult{Level: c.Level, SizeBytes: c.SizeBytes, Method: c.Method})
	}
	return true
}

// sharedCachesProbe determines which cores share each detected cache
// (Section III-B).
type sharedCachesProbe struct{}

func (sharedCachesProbe) Name() string   { return probeShared }
func (sharedCachesProbe) Deps() []string { return []string{probeCacheSize} }

func (sharedCachesProbe) Run(ctx context.Context, m *topology.Machine, opt Options, r *report.Report) (time.Duration, error) {
	shared, err := SharedCachesContext(ctx, m, cacheLevels(r), opt)
	if err != nil {
		return 0, err
	}
	var cycles float64
	for i := range r.Caches {
		if i < len(shared) {
			r.Caches[i].SharedGroups = shared[i].Groups
			cycles += shared[i].ProbeCycles
		}
	}
	return time.Duration(m.CyclesToNS(cycles)), nil
}

// scope: the Fig. 5 concurrent-traversal options, including the
// per-measurement allocation count the sweep averages over. The probe
// also reads the cache-size probe's section, but dependency
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

// restore copies the sharing groups onto the levels already in dst.
// A report with detected levels but no sharing groups is a valid
// source: the probe legitimately finds every cache private on some
// machines.
func (sharedCachesProbe) restore(dst, src *report.Report) bool {
	if len(src.Caches) == 0 {
		return false
	}
	for i := range dst.Caches {
		if i < len(src.Caches) {
			dst.Caches[i].SharedGroups = src.Caches[i].SharedGroups
		}
	}
	return true
}

// memoryOverheadProbe characterizes concurrent memory-access
// overheads (Section III-C). It reads no other probe's section.
type memoryOverheadProbe struct{}

func (memoryOverheadProbe) Name() string   { return probeMemory }
func (memoryOverheadProbe) Deps() []string { return nil }

func (memoryOverheadProbe) Run(ctx context.Context, m *topology.Machine, opt Options, r *report.Report) (time.Duration, error) {
	memRes, memNS, err := MemoryOverheadContext(ctx, m, opt)
	if err != nil {
		return 0, err
	}
	r.Memory = memRes
	return time.Duration(memNS), nil
}

// scope: the Fig. 6 bandwidth-characterization options.
func (memoryOverheadProbe) scope(o Options) any {
	return struct {
		Seed       int64
		NoiseSigma float64
		SimilarTol float64
	}{o.Seed, o.NoiseSigma, o.SimilarTol}
}

// restore copies the memory section.
func (memoryOverheadProbe) restore(dst, src *report.Report) bool {
	if src.Memory.RefBandwidthGBs <= 0 {
		// A ran probe always records the (validated positive) reference
		// bandwidth; zero means the section was never filled.
		return false
	}
	dst.Memory = src.Memory
	return true
}

// commCostsProbe characterizes the communication layers (Section
// III-D) using the detected L1 size as message size — the dependency
// on the cache-size probe the legacy sequential suite expressed only
// by statement order.
type commCostsProbe struct{}

func (commCostsProbe) Name() string   { return probeComm }
func (commCostsProbe) Deps() []string { return []string{probeCacheSize} }

func (commCostsProbe) Run(ctx context.Context, m *topology.Machine, opt Options, r *report.Report) (time.Duration, error) {
	// The cache-size probe fails with NoCacheLevelsError rather than
	// write an empty section, and does not restore from one, so the
	// L1 entry is here.
	commRes, commNS, err := CommunicationCostsContext(ctx, m, r.Caches[0].SizeBytes, opt)
	if err != nil {
		return 0, err
	}
	r.Comm = commRes
	return time.Duration(commNS), nil
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

// restore copies the communication section. A ran probe always
// records a positive message size (the detected L1); an empty layer
// list is legitimate on unicore machines, which have no core pairs to
// characterize.
func (commCostsProbe) restore(dst, src *report.Report) bool {
	if src.Comm.MessageBytes <= 0 {
		return false
	}
	dst.Comm = src.Comm
	return true
}

// tlbProbe is the TLB extension probe. It is in the registry (so
// -probes can request it) but not part of DefaultProbes: the paper's suite is
// the four stages above.
type tlbProbe struct{}

func (tlbProbe) Name() string   { return probeTLB }
func (tlbProbe) Deps() []string { return nil }

func (tlbProbe) Run(ctx context.Context, m *topology.Machine, opt Options, r *report.Report) (time.Duration, error) {
	res, ok, err := DetectTLB(ctx, m, 0, opt)
	if err != nil {
		return 0, err
	}
	if ok {
		r.TLB = &report.TLBResult{Entries: res.Entries, MissCycles: res.MissCycles}
	}
	return time.Duration(m.CyclesToNS(res.ProbeCycles)), nil
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

// restore copies the TLB section. A nil TLB section is restorable: it
// is exactly what the probe reports on machines without a detectable
// TLB (provenance, not section presence, tells the cache the probe
// ran).
func (tlbProbe) restore(dst, src *report.Report) bool {
	if src.TLB != nil {
		cp := *src.TLB
		dst.TLB = &cp
	}
	return true
}
