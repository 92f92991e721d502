package core

import (
	"context"

	"servet/internal/memsys"
	"servet/internal/stats"
	"servet/internal/topology"
)

// DetectedTLB is the result of the TLB extension probe.
type DetectedTLB struct {
	// Entries is the detected number of TLB entries.
	Entries int
	// MissCycles is the measured translation-miss penalty.
	MissCycles float64
	// ProbeCycles is the total simulated cycles the probe's accesses
	// consumed (reported even when no TLB was found).
	ProbeCycles float64
}

// DetectTLB is an extension probe beyond the paper's suite, in the
// Saavedra & Smith lineage its mcalibrator descends from: traverse
// arrays touching exactly one line per page with a stride of
// page+line bytes (one TLB entry per touch; the extra line offset
// spreads consecutive pages over different cache sets so cache
// capacity stays out of the way), and read the entry count off the
// first gradient jump. ok is false when no transition appears within
// maxPages (e.g. on machines modelled without a TLB). The probe owns
// its memory-system instance and reuses one address buffer across the
// page-count steps; cancelling the context aborts it between steps.
func DetectTLB(ctx context.Context, m *topology.Machine, coreID int, opt Options) (DetectedTLB, bool, error) {
	opt = opt.withDefaults(m)
	in := memsys.NewInstance(m, opt.Seed)
	stride := m.PageBytes + m.Caches[0].LineBytes

	maxPages := 1024
	// Stay within the L1's line capacity so cache misses never mix
	// into the signal.
	if l1Lines := int(m.Caches[0].SizeBytes / m.Caches[0].LineBytes); maxPages > l1Lines/2 {
		maxPages = l1Lines / 2
	}

	var pages []int
	var cycles []float64
	var probeCycles float64
	var addrs []int64
	sp := in.NewSpace()
	for np := 4; np <= maxPages; np *= 2 {
		if err := ctx.Err(); err != nil {
			return DetectedTLB{}, false, err
		}
		in.ResetCaches()
		arr := sp.Alloc(int64(np) * stride)
		addrs = addrs[:0]
		for i := 0; i < np; i++ {
			addrs = append(addrs, arr.Base+int64(i)*stride)
		}
		var sum float64
		in.AccessRunAccum(coreID, sp, addrs, &probeCycles, nil) // warm-up pass
		for pass := 1; pass <= opt.Passes; pass++ {
			in.AccessRunAccum(coreID, sp, addrs, &probeCycles, &sum)
		}
		n := int64(opt.Passes) * int64(np)
		sp.Free(arr)
		pages = append(pages, np)
		cycles = append(cycles, sum/float64(n))
	}

	g := stats.Gradient(cycles)
	runs := stats.FindRuns(g, opt.GradientThreshold, opt.PeakMin)
	if len(runs) == 0 {
		return DetectedTLB{ProbeCycles: probeCycles}, false, nil
	}
	k := runs[0].Peak
	return DetectedTLB{
		Entries:     pages[k],
		MissCycles:  cycles[len(cycles)-1] - cycles[0],
		ProbeCycles: probeCycles,
	}, true, nil
}
