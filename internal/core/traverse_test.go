package core

import (
	"context"
	"testing"

	"servet/internal/memsys"
	"servet/internal/obs"
	"servet/internal/topology"
)

// TestMcalibratorReplaysSecondPass: at default options every nehalem2s
// mcalibrator traversal is one warm-up and two measured passes, and
// each reaches its fixed point after the warm-up, so exactly one
// access in three is replayed instead of simulated. The traced
// calibration equals the untraced one.
func TestMcalibratorReplaysSecondPass(t *testing.T) {
	m := topology.Nehalem2S()
	tr := obs.New()
	traced, err := McalibratorContext(obs.WithTracer(context.Background(), tr), m, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	accesses, replayed := tr.Counter(obs.CounterMemsysAccesses), tr.Counter(obs.CounterMemsysReplayed)
	if accesses == 0 || 3*replayed != accesses {
		t.Errorf("%s = %d, %s = %d: want exactly one third replayed",
			obs.CounterMemsysAccesses, accesses, obs.CounterMemsysReplayed, replayed)
	}
	plain, err := McalibratorContext(context.Background(), m, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if traced.ProbeCycles != plain.ProbeCycles {
		t.Errorf("traced ProbeCycles %v, untraced %v", traced.ProbeCycles, plain.ProbeCycles)
	}
	for i := range plain.Cycles {
		if traced.Cycles[i] != plain.Cycles[i] {
			t.Fatalf("size %d: traced %v cycles, untraced %v", plain.Sizes[i], traced.Cycles[i], plain.Cycles[i])
		}
	}
}

// TestWarmupFillCounts: on nehalem2s, seeds 1–3, every traversal's
// warm-up runs over just-reset caches at the 1 KB probe stride, beyond
// the prefetcher's reach, so it is filled instead of simulated: the
// mcalibrator fills exactly one pass per (size, allocation), and each
// stream of a cross-socket pair fills its warm-up pass. A same-socket
// pair's streams share the L3 and interleave, and their warm-ups are
// filled together, as far as the first measured access: the two
// streams are equally long and every warm-up access costs the same
// miss, so they alternate and both finish their warm-up first. The
// replayed counts stay those TestSharedCachePairsReplayUncoupledStreams
// pins.
func TestWarmupFillCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("3 calibrations and 28 pairs x 3 levels x 3 seeds")
	}
	m := topology.Nehalem2S()
	levels := make([]DetectedCache, len(m.Caches))
	for i, c := range m.Caches {
		levels[i] = DetectedCache{Level: c.Level, SizeBytes: c.SizeBytes}
	}
	socket := func(core int) int { return core / 4 }
	for seed := int64(1); seed <= 3; seed++ {
		opt := Options{Seed: seed}.withDefaults(m)
		tr := obs.New()
		if _, err := McalibratorContext(obs.WithTracer(context.Background(), tr), m, 0, opt); err != nil {
			t.Fatal(err)
		}
		var perPasses int64
		for _, size := range SizeGrid(opt.MinCacheBytes, opt.MaxCacheBytes) {
			perPasses += int64(opt.Allocations) * ((size + opt.StrideBytes - 1) / opt.StrideBytes)
		}
		if got := tr.Counter(obs.CounterMemsysFilled); got != perPasses {
			t.Errorf("seed %d mcalibrator: filled %d accesses, want one pass per (size, allocation): %d", seed, got, perPasses)
		}

		sc := &scScratch{in: memsys.NewInstanceAt(m, opt.Seed)}
		for _, lvl := range levels {
			ab := lvl.SizeBytes * 2 / 3
			ab -= ab % opt.StrideBytes
			perPass := ab / opt.StrideBytes
			for pi, pair := range allNodePairs(m) {
				wantFilled, wantReplayed := 2*perPass, int64(0)
				if socket(pair[0]) != socket(pair[1]) {
					wantReplayed = 2 * int64(opt.Passes-1) * perPass
				}
				for alloc := int64(0); alloc < int64(opt.Allocations); alloc++ {
					sc.tr = obs.New()
					sc.measurePair(opt, int64(lvl.Level), pi, pair, alloc, ab)
					filled, replayed := sc.tr.Counter(obs.CounterMemsysFilled), sc.tr.Counter(obs.CounterMemsysReplayed)
					if filled != wantFilled || replayed != wantReplayed {
						t.Fatalf("seed %d L%d pair %v alloc %d: filled %d and replayed %d accesses, want %d and %d",
							seed, lvl.Level, pair, alloc, filled, replayed, wantFilled, wantReplayed)
					}
				}
			}
		}
	}
}

// TestDerivedPassCounts: on nehalem2s, seeds 1–3, every filled warm-up
// is followed by a derived pass. Each mcalibrator (size, allocation)
// derives exactly its first measured pass and replays the second; each
// stream of a cross-socket pair derives its first measured pass. A
// same-socket pair's streams interleave and derive nothing.
func TestDerivedPassCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("3 calibrations and 28 pairs x 3 levels x 3 seeds")
	}
	m := topology.Nehalem2S()
	socket := func(core int) int { return core / 4 }
	for seed := int64(1); seed <= 3; seed++ {
		opt := Options{Seed: seed}.withDefaults(m)
		tr := obs.New()
		if _, err := McalibratorContext(obs.WithTracer(context.Background(), tr), m, 0, opt); err != nil {
			t.Fatal(err)
		}
		var perPasses int64
		for _, size := range SizeGrid(opt.MinCacheBytes, opt.MaxCacheBytes) {
			perPasses += int64(opt.Allocations) * ((size + opt.StrideBytes - 1) / opt.StrideBytes)
		}
		derived, replayed := tr.Counter(obs.CounterMemsysDerived), tr.Counter(obs.CounterMemsysReplayed)
		if derived != perPasses || replayed != perPasses {
			t.Errorf("seed %d mcalibrator: derived %d and replayed %d accesses, want one pass each per (size, allocation): %d",
				seed, derived, replayed, perPasses)
		}

		sc := &scScratch{in: memsys.NewInstanceAt(m, opt.Seed)}
		for _, c := range m.Caches {
			ab := c.SizeBytes * 2 / 3
			ab -= ab % opt.StrideBytes
			perPass := ab / opt.StrideBytes
			for pi, pair := range allNodePairs(m) {
				var want int64
				if socket(pair[0]) != socket(pair[1]) {
					want = 2 * perPass
				}
				for alloc := int64(0); alloc < int64(opt.Allocations); alloc++ {
					sc.tr = obs.New()
					sc.measurePair(opt, int64(c.Level), pi, pair, alloc, ab)
					if got := sc.tr.Counter(obs.CounterMemsysDerived); got != want {
						t.Fatalf("seed %d L%d pair %v alloc %d: derived %d accesses, want %d", seed, c.Level, pair, alloc, got, want)
					}
				}
			}
		}
	}
}
