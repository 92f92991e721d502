package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"servet/internal/memsys"
	"servet/internal/obs"
	"servet/internal/topology"
)

// sharedCaches runs SharedCachesContext to completion, failing the
// test on error.
func sharedCaches(t *testing.T, m *topology.Machine, levels []DetectedCache, opt Options) []SharedCacheLevel {
	t.Helper()
	res, err := SharedCachesContext(context.Background(), m, levels, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func dunningtonLevels() []DetectedCache {
	return []DetectedCache{
		{Level: 1, SizeBytes: 32 * topology.KB},
		{Level: 2, SizeBytes: 3 * topology.MB},
		{Level: 3, SizeBytes: 12 * topology.MB},
	}
}

// TestSharedCachesDunnington reproduces Fig. 8(a): core 0 shares its
// L2 with core 12 (not core 1!) and its L3 with {1,2,12,13,14}; the L1
// is private.
func TestSharedCachesDunnington(t *testing.T) {
	if testing.Short() {
		t.Skip("276 pairs x 3 levels")
	}
	m := topology.Dunnington()
	res := sharedCaches(t, m, dunningtonLevels(), Options{Seed: 1})
	if len(res) != 3 {
		t.Fatalf("levels = %d", len(res))
	}

	if len(res[0].SharedPairs) != 0 {
		t.Errorf("L1 flagged pairs: %v", res[0].SharedPairs)
	}

	wantL2 := make([][]int, 0, 12)
	for i := 0; i < 12; i++ {
		wantL2 = append(wantL2, []int{i, i + 12})
	}
	if !reflect.DeepEqual(res[1].Groups, wantL2) {
		t.Errorf("L2 groups = %v, want pairs {i, i+12}", res[1].Groups)
	}

	wantL3 := [][]int{
		{0, 1, 2, 12, 13, 14}, {3, 4, 5, 15, 16, 17},
		{6, 7, 8, 18, 19, 20}, {9, 10, 11, 21, 22, 23},
	}
	if !reflect.DeepEqual(res[2].Groups, wantL3) {
		t.Errorf("L3 groups = %v, want hexacore processors", res[2].Groups)
	}

	// The ratio metric of Fig. 8(a): the sharing pair well above 2, a
	// non-sharing pair well below.
	if r := res[1].RatioFor(0, 12); r <= 2 {
		t.Errorf("ratio(0,12) at L2 = %.2f, want > 2", r)
	}
	if r := res[1].RatioFor(0, 3); r >= 2 {
		t.Errorf("ratio(0,3) at L2 = %.2f, want < 2", r)
	}
}

// TestSharedCachesFinisTerrae reproduces Fig. 8(b): every ratio below
// 2, all caches private.
func TestSharedCachesFinisTerrae(t *testing.T) {
	if testing.Short() {
		t.Skip("120 pairs x 3 levels")
	}
	m := topology.FinisTerrae(1)
	levels := []DetectedCache{
		{Level: 1, SizeBytes: 16 * topology.KB},
		{Level: 2, SizeBytes: 256 * topology.KB},
		{Level: 3, SizeBytes: 9 * topology.MB},
	}
	res := sharedCaches(t, m, levels, Options{Seed: 1})
	for _, lvl := range res {
		if len(lvl.SharedPairs) != 0 {
			t.Errorf("L%d flagged pairs %v; Finis Terrae caches are private", lvl.Level, lvl.SharedPairs)
		}
		for _, pr := range lvl.Ratios {
			if pr.Ratio > 2 {
				t.Errorf("L%d ratio(%d,%d) = %.2f > 2", lvl.Level, pr.A, pr.B, pr.Ratio)
			}
		}
	}
}

// TestSharedCachesSMTLevel1 exercises shared-L1 detection, which none
// of the paper machines has (SMT-style pairing).
func TestSharedCachesSMTLevel1(t *testing.T) {
	m := topology.SMTQuad()
	levels := []DetectedCache{
		{Level: 1, SizeBytes: 32 * topology.KB},
		{Level: 2, SizeBytes: 1 * topology.MB},
	}
	res := sharedCaches(t, m, levels, Options{Seed: 1})
	wantL1 := [][]int{{0, 1}, {2, 3}}
	if !reflect.DeepEqual(res[0].Groups, wantL1) {
		t.Errorf("L1 groups = %v, want %v", res[0].Groups, wantL1)
	}
	wantL2 := [][]int{{0, 1, 2, 3}}
	if !reflect.DeepEqual(res[1].Groups, wantL2) {
		t.Errorf("L2 groups = %v, want %v", res[1].Groups, wantL2)
	}
}

func TestSharedCachesUnicore(t *testing.T) {
	m := topology.Athlon3200()
	levels := []DetectedCache{
		{Level: 1, SizeBytes: 64 * topology.KB},
		{Level: 2, SizeBytes: 512 * topology.KB},
	}
	res := sharedCaches(t, m, levels, Options{Seed: 1})
	for _, lvl := range res {
		if len(lvl.Ratios) != 0 || len(lvl.Groups) != 0 {
			t.Errorf("unicore L%d probed pairs: %+v", lvl.Level, lvl)
		}
		if lvl.RefCycles <= 0 {
			t.Errorf("unicore L%d missing reference", lvl.Level)
		}
	}
}

// TestSharedCacheShardedGolden: the sharded (level, pair) sweep must
// produce a byte-identical result — including the order-sensitive
// ProbeCycles float sums — at parallelism 1, 2, 4 and NumCPU, with
// noise off and on. Per-measurement memory-system instances and
// stateless noise are exactly what make this hold; a shared advancing
// RNG would break both.
func TestSharedCacheShardedGolden(t *testing.T) {
	machines := map[string][]DetectedCache{
		"smtquad": {
			{Level: 1, SizeBytes: 32 * topology.KB},
			{Level: 2, SizeBytes: 1 * topology.MB},
		},
		"dempsey": {
			{Level: 1, SizeBytes: 16 * topology.KB},
			{Level: 2, SizeBytes: 2 * topology.MB},
		},
	}
	models := map[string]*topology.Machine{
		"smtquad": topology.SMTQuad(),
		"dempsey": topology.Dempsey(),
	}
	for name, levels := range machines {
		m := models[name]
		for _, sigma := range []float64{0, 0.02} {
			t.Run(fmt.Sprintf("%s/sigma=%g", name, sigma), func(t *testing.T) {
				assertShardedGolden(t, func(parallelism int) string {
					opt := Options{Seed: 1, NoiseSigma: sigma, Allocations: 2, Parallelism: parallelism}
					res, err := SharedCachesContext(context.Background(), m, levels, opt)
					if err != nil {
						t.Fatal(err)
					}
					data, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					return string(data)
				})
			})
		}
	}
}

// TestSharedCachesCancelledContext: cancelling the context aborts the
// sharded sweep with context.Canceled.
func TestSharedCachesCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := topology.SMTQuad()
	levels := []DetectedCache{{Level: 1, SizeBytes: 32 * topology.KB}}
	if _, err := SharedCachesContext(ctx, m, levels, Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRatioGuard: a degenerate zero reference must not emit NaN/Inf
// ratios into the report (mirror of the communication sweep's
// slowdownVs guard).
func TestRatioGuard(t *testing.T) {
	if got := ratioVs(5, 0); got != 0 {
		t.Errorf("zero reference: ratio = %g, want 0", got)
	}
	if got := ratioVs(0, 0); got != 0 {
		t.Errorf("all-zero measurement: ratio = %g, want 0", got)
	}
	if got := ratioVs(6, 3); got != 2 {
		t.Errorf("ratio = %g, want 2", got)
	}
}

func TestSharedCacheRatioForMissingPair(t *testing.T) {
	lvl := SharedCacheLevel{Ratios: []PairRatio{{A: 0, B: 1, Ratio: 1.5}}}
	if got := lvl.RatioFor(1, 0); got != 1.5 {
		t.Errorf("RatioFor(1,0) = %g, want 1.5 (order-insensitive)", got)
	}
	if got := lvl.RatioFor(0, 2); got != 0 {
		t.Errorf("RatioFor missing = %g, want 0", got)
	}
}

func TestSharedCachesArrayRounding(t *testing.T) {
	// A detected size whose 2/3 is not a stride multiple must still
	// produce a stride-aligned positive array.
	m := topology.SMTQuad()
	levels := []DetectedCache{{Level: 1, SizeBytes: 32 * topology.KB}}
	res := sharedCaches(t, m, levels, Options{Seed: 1})
	if res[0].ArrayBytes%1024 != 0 || res[0].ArrayBytes <= 0 {
		t.Errorf("array bytes = %d, want positive stride multiple", res[0].ArrayBytes)
	}
	want := int64(32*topology.KB) * 2 / 3
	want -= want % 1024
	if res[0].ArrayBytes != want {
		t.Errorf("array bytes = %d, want %d", res[0].ArrayBytes, want)
	}
}

// TestSharedCachePairsReplayUncoupledStreams: on nehalem2s a pair of
// cores on different sockets shares no cache, so each of its streams
// runs alone and replays every measured pass after the first — at the
// default two measured passes, exactly one per stream. A same-socket
// pair shares the L3 and is simulated access by access at every level.
// Tracing the sweep changes none of its results.
func TestSharedCachePairsReplayUncoupledStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("28 pairs x 3 levels x 3 seeds, traced and untraced")
	}
	m := topology.Nehalem2S()
	levels := make([]DetectedCache, len(m.Caches))
	for i, c := range m.Caches {
		levels[i] = DetectedCache{Level: c.Level, SizeBytes: c.SizeBytes}
	}
	socket := func(core int) int { return core / 4 }
	for seed := int64(1); seed <= 3; seed++ {
		opt := Options{Seed: seed}.withDefaults(m)
		sc := &scScratch{in: memsys.NewInstanceAt(m, opt.Seed)}
		for _, lvl := range levels {
			ab := lvl.SizeBytes * 2 / 3
			ab -= ab % opt.StrideBytes
			perPass := ab / opt.StrideBytes
			for pi, pair := range allNodePairs(m) {
				var want int64
				if socket(pair[0]) != socket(pair[1]) {
					want = 2 * int64(opt.Passes-1) * perPass
				}
				for alloc := int64(0); alloc < int64(opt.Allocations); alloc++ {
					sc.tr = obs.New()
					sc.measurePair(opt, int64(lvl.Level), pi, pair, alloc, ab)
					if got := sc.tr.Counter(obs.CounterMemsysReplayed); got != want {
						t.Fatalf("seed %d L%d pair %v alloc %d: replayed %d accesses, want %d", seed, lvl.Level, pair, alloc, got, want)
					}
					if got, want := sc.tr.Counter(obs.CounterMemsysAccesses), 2*int64(opt.Passes+1)*perPass; got != want {
						t.Fatalf("seed %d L%d pair %v alloc %d: counted %d accesses, want %d", seed, lvl.Level, pair, alloc, got, want)
					}
				}
			}
		}

		opt = Options{Seed: seed, Parallelism: 2}
		untraced := sharedCaches(t, m, levels, opt)
		tr := obs.New()
		traced, err := SharedCachesContext(obs.WithTracer(context.Background(), tr), m, levels, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(traced, untraced) {
			t.Errorf("seed %d: traced sweep differs from untraced", seed)
		}
		if tr.Counter(obs.CounterMemsysReplayed) == 0 {
			t.Errorf("seed %d: traced sweep counted no replayed accesses", seed)
		}
	}
}
