package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"servet/internal/topology"
)

// expectedCaches is the §IV-A ground truth: 10 cache sizes across the
// four paper machines (plus the synthetic models).
var expectedCaches = map[string][]int64{
	"dunnington":  {32 * topology.KB, 3 * topology.MB, 12 * topology.MB},
	"finisterrae": {16 * topology.KB, 256 * topology.KB, 9 * topology.MB},
	"dempsey":     {16 * topology.KB, 2 * topology.MB},
	"athlon3200":  {64 * topology.KB, 512 * topology.KB},
	"colored-smp": {16 * topology.KB, 2 * topology.MB},
	"smt-quad":    {32 * topology.KB, 1 * topology.MB},
	"nehalem2s":   {32 * topology.KB, 256 * topology.KB, 8 * topology.MB},
}

func detect(t *testing.T, m *topology.Machine, seed int64) []DetectedCache {
	t.Helper()
	det, _, err := DetectCaches(context.Background(), m, 0, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// mcal runs McalibratorContext to completion, failing the test on
// error.
func mcal(t *testing.T, m *topology.Machine, core int, opt Options) Calibration {
	t.Helper()
	cal, err := McalibratorContext(context.Background(), m, core, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func checkSizes(t *testing.T, name string, det []DetectedCache, want []int64) {
	t.Helper()
	if len(det) != len(want) {
		t.Fatalf("%s: detected %d levels, want %d: %+v", name, len(det), len(want), det)
	}
	for i, d := range det {
		if d.SizeBytes != want[i] {
			t.Errorf("%s: L%d = %d, want %d (method %s)", name, d.Level, d.SizeBytes, want[i], d.Method)
		}
		if d.Level != i+1 {
			t.Errorf("%s: level numbering %d at index %d", name, d.Level, i)
		}
	}
}

// TestSectionIVACacheSizes is the headline claim of §IV-A: every
// estimate agrees with the machine specification.
func TestSectionIVACacheSizes(t *testing.T) {
	for _, m := range []*topology.Machine{
		topology.Dempsey(), topology.Athlon3200(),
	} {
		checkSizes(t, m.Name, detect(t, m, 1), expectedCaches[m.Name])
	}
}

func TestSectionIVACacheSizesLargeMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("large machines take seconds")
	}
	for _, m := range []*topology.Machine{
		topology.Dunnington(), topology.FinisTerrae(1), topology.Nehalem2S(),
	} {
		checkSizes(t, m.Name, detect(t, m, 1), expectedCaches[m.Name])
	}
}

// TestNehalemAdjacentL1L2Runs covers the no-plateau case: a 256 KB L2
// behind a 32 KB L1 merges both transitions into one contiguous
// gradient run, and the detector must still split out the L1 (one
// sharp step) from the smeared L2 (seed-robust).
func TestNehalemAdjacentL1L2Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(2); seed <= 4; seed++ {
		checkSizes(t, "nehalem2s", detect(t, topology.Nehalem2S(), seed), expectedCaches["nehalem2s"])
	}
}

// TestCacheSizesSeedRobust re-runs the detection under different page
// placements: the estimates must not depend on allocation luck.
func TestCacheSizesSeedRobust(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(2); seed <= 4; seed++ {
		for _, m := range []*topology.Machine{topology.Dempsey(), topology.Athlon3200()} {
			checkSizes(t, m.Name, detect(t, m, seed), expectedCaches[m.Name])
		}
	}
}

// TestPageColoringUsesDirectPath checks the Fig. 4 decision tree: with
// a page-coloring OS the lower levels are read directly off the
// gradient (no probabilistic estimation).
func TestPageColoringUsesDirectPath(t *testing.T) {
	det := detect(t, topology.ColoredSMP(), 1)
	checkSizes(t, "colored-smp", det, expectedCaches["colored-smp"])
	for _, d := range det {
		if d.Method != "gradient" {
			t.Errorf("L%d method = %s, want gradient under page coloring", d.Level, d.Method)
		}
	}
}

// TestRandomPlacementUsesProbabilisticPath checks the complementary
// branch: without coloring, physically indexed levels need the
// estimator.
func TestRandomPlacementUsesProbabilisticPath(t *testing.T) {
	det := detect(t, topology.Dempsey(), 1)
	if det[0].Method != "gradient" {
		t.Errorf("L1 method = %s, want gradient (virtually indexed)", det[0].Method)
	}
	if det[1].Method != "probabilistic" {
		t.Errorf("L2 method = %s, want probabilistic", det[1].Method)
	}
}

// TestNaiveEstimatorFailsOnDempsey reproduces the paper's §III-A
// motivation: reading the largest gradient peak reports a 1 MB L2 on
// Dempsey, while the probabilistic algorithm reports the correct 2 MB.
func TestNaiveEstimatorFailsOnDempsey(t *testing.T) {
	m := topology.Dempsey()
	opt := Options{Seed: 1}
	cal := mcal(t, m, 0, opt)
	naive := NaiveCacheSizes(cal, opt)
	if len(naive) < 2 {
		t.Fatalf("naive found %d levels", len(naive))
	}
	if naive[1].SizeBytes >= 2*topology.MB {
		t.Errorf("naive L2 = %d; expected an underestimate (the paper reports 1 MB)", naive[1].SizeBytes)
	}
	det := DetectCacheSizes(cal, m.PageBytes, opt)
	if len(det) < 2 || det[1].SizeBytes != 2*topology.MB {
		t.Errorf("probabilistic L2 = %+v, want 2 MB", det)
	}
}

func TestSizeGrid(t *testing.T) {
	g := SizeGrid(4*topology.KB, 5*topology.MB)
	// Doubles to 2MB, then +1MB.
	wantPrefix := []int64{4 * topology.KB, 8 * topology.KB}
	for i, w := range wantPrefix {
		if g[i] != w {
			t.Errorf("g[%d] = %d, want %d", i, g[i], w)
		}
	}
	last := g[len(g)-1]
	if last != 5*topology.MB {
		t.Errorf("last = %d, want 5MB", last)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not increasing at %d", i)
		}
		if g[i-1] >= 2*topology.MB && g[i]-g[i-1] != topology.MB {
			t.Errorf("step after 2MB is %d, want 1MB", g[i]-g[i-1])
		}
	}
}

func TestProbabilisticSizeDegenerate(t *testing.T) {
	if got := ProbabilisticSize(nil, nil, 4096); got != 0 {
		t.Errorf("empty input = %d", got)
	}
	if got := ProbabilisticSize([]int64{4096}, []float64{1, 2}, 4096); got != 0 {
		t.Errorf("length mismatch = %d", got)
	}
	// Flat cycles: no transition to fit.
	if got := ProbabilisticSize([]int64{4096, 8192}, []float64{5, 5}, 4096); got != 0 {
		t.Errorf("flat window = %d", got)
	}
}

func TestCandidateSizesCoverOddCapacities(t *testing.T) {
	cands := candidateSizes(1*topology.MB, 16*topology.MB)
	want := map[int64]bool{
		3 * topology.MB: false, 9 * topology.MB: false, 12 * topology.MB: false,
		2 * topology.MB: false, 8 * topology.MB: false,
	}
	for _, c := range cands {
		if _, ok := want[c]; ok {
			want[c] = true
		}
	}
	for s, seen := range want {
		if !seen {
			t.Errorf("candidate %d missing", s)
		}
	}
}

func TestDedupLevels(t *testing.T) {
	in := []DetectedCache{
		{Level: 1, SizeBytes: 32 * topology.KB},
		{Level: 2, SizeBytes: 12 * topology.MB},
		{Level: 3, SizeBytes: 12 * topology.MB},
	}
	out := dedupLevels(in)
	if len(out) != 2 {
		t.Fatalf("dedup kept %d levels: %+v", len(out), out)
	}
	if out[1].SizeBytes != 12*topology.MB || out[1].Level != 2 {
		t.Errorf("dedup result %+v", out)
	}
	if got := dedupLevels(nil); len(got) != 0 {
		t.Errorf("dedup(nil) = %+v", got)
	}
}

// TestMcalibratorShardedGolden: the sharded size-grid sweep must
// produce a byte-identical calibration — including the order-sensitive
// ProbeCycles float sum — at parallelism 1, 2, 4 and NumCPU, with
// noise off and on. Per-(size, allocation) memory-system instances and
// stateless noise are exactly what make this hold.
func TestMcalibratorShardedGolden(t *testing.T) {
	models := map[string]*topology.Machine{
		"dempsey": topology.Dempsey(),
		"smtquad": topology.SMTQuad(),
	}
	for name, m := range models {
		for _, sigma := range []float64{0, 0.02} {
			t.Run(fmt.Sprintf("%s/sigma=%g", name, sigma), func(t *testing.T) {
				assertShardedGolden(t, func(parallelism int) string {
					opt := Options{
						Seed: 1, NoiseSigma: sigma, Allocations: 2,
						MaxCacheBytes: 4 * topology.MB, Parallelism: parallelism,
					}
					cal, err := McalibratorContext(context.Background(), m, 0, opt)
					if err != nil {
						t.Fatal(err)
					}
					data, err := json.Marshal(struct {
						Sizes       []int64
						Cycles      []float64
						ProbeCycles float64
					}{cal.Sizes, cal.Cycles, cal.ProbeCycles})
					if err != nil {
						t.Fatal(err)
					}
					return string(data)
				})
			})
		}
	}
}

// TestMcalibratorCancelledContext: cancelling the context aborts the
// sharded grid sweep with context.Canceled.
func TestMcalibratorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := McalibratorContext(ctx, topology.Dempsey(), 0, Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestMcalibratorShape checks Fig. 2's qualitative shape on Dempsey:
// flat at the L1 hit cost, a sharp jump past 16 KB, and a smeared rise
// around the 2 MB L2.
func TestMcalibratorShape(t *testing.T) {
	m := topology.Dempsey()
	cal := mcal(t, m, 0, Options{Seed: 1})
	at := func(size int64) float64 {
		for i, s := range cal.Sizes {
			if s == size {
				return cal.Cycles[i]
			}
		}
		t.Fatalf("size %d not in grid", size)
		return 0
	}
	if c := at(8 * topology.KB); c != 3 {
		t.Errorf("C(8KB) = %g, want 3 (L1 hit cost)", c)
	}
	if c := at(32 * topology.KB); c != 17 {
		t.Errorf("C(32KB) = %g, want 17 (L2 hit cost)", c)
	}
	c1, c2, c4 := at(1*topology.MB), at(2*topology.MB), at(4*topology.MB)
	if !(c1 < c2 && c2 < c4) {
		t.Errorf("no smear across L2: %g %g %g", c1, c2, c4)
	}
	if cal.ProbeCycles <= 0 {
		t.Error("probe cycle accounting missing")
	}
}

// TestMcalibratorStrideDefeatsPrefetcher is the §III-A design claim:
// with a 256 B stride the prefetcher hides the L1 transition; the 1 KB
// probe stride keeps it visible.
func TestMcalibratorStrideDefeatsPrefetcher(t *testing.T) {
	m := topology.Dempsey()
	gradAt16K := func(stride int64) float64 {
		cal := mcal(t, m, 0, Options{Seed: 1, StrideBytes: stride, MaxCacheBytes: 128 * topology.KB})
		for i, s := range cal.Sizes {
			if s == 16*topology.KB {
				return cal.Cycles[i+1] / cal.Cycles[i]
			}
		}
		t.Fatal("16KB not in grid")
		return 0
	}
	probe := gradAt16K(1024)
	small := gradAt16K(256)
	if probe < 2 {
		t.Errorf("1KB-stride gradient at L1 = %.2f, want sharp (>2)", probe)
	}
	if small > 2 {
		t.Errorf("256B-stride gradient at L1 = %.2f; prefetcher should hide the transition", small)
	}
}
