package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"servet/internal/report"
	"servet/internal/topology"
)

// memOverhead runs MemoryOverheadContext to completion, failing the
// test on error.
func memOverhead(t *testing.T, m *topology.Machine, opt Options) (report.MemoryResult, float64) {
	t.Helper()
	res, probeNS, err := MemoryOverheadContext(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, probeNS
}

// TestMemoryOverheadDunnington reproduces Fig. 9(a)'s Dunnington
// result: every pair collides on the single FSB with the same
// magnitude — one overhead level covering all cores.
func TestMemoryOverheadDunnington(t *testing.T) {
	m := topology.Dunnington()
	res, probeNS := memOverhead(t, m, Options{Seed: 1})
	if res.RefBandwidthGBs != 4.0 {
		t.Errorf("ref = %g, want 4.0", res.RefBandwidthGBs)
	}
	if len(res.Levels) != 1 {
		t.Fatalf("levels = %d, want 1 (uniform overhead)", len(res.Levels))
	}
	lvl := res.Levels[0]
	if math.Abs(lvl.BandwidthGBs-2.6) > 1e-9 {
		t.Errorf("pair bandwidth = %g, want 2.6", lvl.BandwidthGBs)
	}
	if len(lvl.Pairs) != 24*23/2 {
		t.Errorf("pairs = %d, want all %d", len(lvl.Pairs), 24*23/2)
	}
	if len(lvl.Groups) != 1 || len(lvl.Groups[0]) != 24 {
		t.Errorf("groups = %v, want one group of 24", lvl.Groups)
	}
	if probeNS <= 0 {
		t.Error("probe accounting missing")
	}
}

// TestMemoryOverheadFinisTerrae reproduces Fig. 9(a)'s Finis Terrae
// result: two overhead levels — bus sharers (lowest bandwidth) and
// cell sharers (~25% below reference) — and no overhead across cells.
func TestMemoryOverheadFinisTerrae(t *testing.T) {
	m := topology.FinisTerrae(1)
	res, _ := memOverhead(t, m, Options{Seed: 1})
	if len(res.Levels) != 2 {
		t.Fatalf("levels = %d, want 2 (bus + cell)", len(res.Levels))
	}
	bus, cell := res.Levels[0], res.Levels[1]
	if bus.BandwidthGBs >= cell.BandwidthGBs {
		t.Errorf("bus %g should be below cell %g", bus.BandwidthGBs, cell.BandwidthGBs)
	}
	// Bus groups: processors pairs {0..3},{4..7},...
	wantBus := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}}
	if !reflect.DeepEqual(bus.Groups, wantBus) {
		t.Errorf("bus groups = %v, want %v", bus.Groups, wantBus)
	}
	// Cell groups: the two cells.
	wantCell := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13, 14, 15}}
	if !reflect.DeepEqual(cell.Groups, wantCell) {
		t.Errorf("cell groups = %v, want %v", cell.Groups, wantCell)
	}
	// The ~25% cell penalty.
	if pct := 1 - cell.BandwidthGBs/res.RefBandwidthGBs; pct < 0.15 || pct > 0.35 {
		t.Errorf("cell penalty = %.0f%%, want ~25%%", pct*100)
	}
	// Cross-cell pairs must not appear anywhere.
	for _, lvl := range res.Levels {
		for _, p := range lvl.Pairs {
			if (p[0] < 8) != (p[1] < 8) {
				t.Errorf("cross-cell pair %v flagged with overhead", p)
			}
		}
	}
}

// TestMemoryScalabilityCurves reproduces Fig. 9(b): decreasing
// per-core bandwidth, with the bus curve below the cell curve at equal
// core counts.
func TestMemoryScalabilityCurves(t *testing.T) {
	m := topology.FinisTerrae(1)
	res, _ := memOverhead(t, m, Options{Seed: 1})
	bus, cell := res.Levels[0], res.Levels[1]
	for _, lvl := range res.Levels {
		for i := 1; i < len(lvl.Scalability); i++ {
			if lvl.Scalability[i].PerCoreGBs > lvl.Scalability[i-1].PerCoreGBs {
				t.Errorf("per-core bandwidth increased at n=%d", lvl.Scalability[i].Cores)
			}
		}
		if lvl.Scalability[0].Cores != 1 {
			t.Errorf("scalability starts at n=%d", lvl.Scalability[0].Cores)
		}
	}
	// At n=2: bus pair 2.1 vs cell pair 2.625.
	if b, c := bus.Scalability[1].PerCoreGBs, cell.Scalability[1].PerCoreGBs; b >= c {
		t.Errorf("bus(2)=%g should be below cell(2)=%g", b, c)
	}
	// Aggregate bandwidth never exceeds any saturated capacity.
	for _, pt := range bus.Scalability {
		if pt.AggregateGBs > 5.25+1e-9 {
			t.Errorf("aggregate %g exceeds cell capacity", pt.AggregateGBs)
		}
	}
}

func TestMemoryOverheadUnicore(t *testing.T) {
	m := topology.Athlon3200()
	res, _ := memOverhead(t, m, Options{Seed: 1})
	if len(res.Levels) != 0 {
		t.Errorf("unicore overhead levels: %+v", res.Levels)
	}
	if res.RefBandwidthGBs != 3.0 {
		t.Errorf("ref = %g", res.RefBandwidthGBs)
	}
}

// TestMemoryOverheadWithNoise checks that the clustering tolerances
// absorb measurement noise: the level structure must survive 2%
// relative noise.
func TestMemoryOverheadWithNoise(t *testing.T) {
	m := topology.FinisTerrae(1)
	res, _ := memOverhead(t, m, Options{Seed: 3, NoiseSigma: 0.02})
	if len(res.Levels) != 2 {
		t.Fatalf("levels under noise = %d, want 2", len(res.Levels))
	}
	if res.Levels[0].BandwidthGBs >= res.Levels[1].BandwidthGBs {
		t.Errorf("level ordering lost under noise: %+v", res.Levels)
	}
}

// TestMemOverheadShardedGolden: the sharded pair sweep must produce a
// byte-identical result — including the order-sensitive probeNS float
// sum — at parallelism 1, 2, 4 and NumCPU, with noise off and on.
func TestMemOverheadShardedGolden(t *testing.T) {
	models := map[string]*topology.Machine{
		"finisterrae": topology.FinisTerrae(1),
		"dunnington":  topology.Dunnington(),
	}
	for name, m := range models {
		for _, sigma := range []float64{0, 0.02} {
			t.Run(fmt.Sprintf("%s/sigma=%g", name, sigma), func(t *testing.T) {
				assertShardedGolden(t, func(parallelism int) string {
					opt := Options{Seed: 1, NoiseSigma: sigma, Parallelism: parallelism}
					res, probeNS, err := MemoryOverheadContext(context.Background(), m, opt)
					if err != nil {
						t.Fatal(err)
					}
					data, err := json.Marshal(struct {
						Res     interface{}
						ProbeNS float64
					}{res, probeNS})
					if err != nil {
						t.Fatal(err)
					}
					return string(data)
				})
			})
		}
	}
}

// TestMemOverheadCancelledContext: cancelling the context aborts the
// sharded sweep with context.Canceled.
func TestMemOverheadCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MemoryOverheadContext(ctx, topology.Dunnington(), Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestMemoryOverheadPaperGroupingExample re-checks the grouping logic
// of Section III-C with the exact example of the paper: pairs
// (0,1),(0,2),(3,4),(3,5) at one overhead level give groups {0,1,2}
// and {3,4,5}. The pairs come from a machine crafted to produce them.
func TestMemoryOverheadPaperGroupingExample(t *testing.T) {
	m := &topology.Machine{
		Name: "paper-example", ClockGHz: 2, Nodes: 1, CoresPerNode: 6,
		PageBytes: 4 * topology.KB, PhysPagesPerNode: 1 << 16,
		PrefetchMaxStrideBytes: 512,
		Caches: []topology.CacheLevel{{
			Level: 1, SizeBytes: 16 * topology.KB, Assoc: 4, LineBytes: 64,
			LatencyCycles: 3, Indexing: topology.VirtuallyIndexed,
			Groups: topology.PrivateGroups(6),
		}},
		Memory: topology.Memory{
			LatencyCycles: 200, PerCoreGBs: 3.0,
			Domains: []topology.BWDomain{{
				Name:   "bus",
				Groups: [][]int{{0, 1, 2}, {3, 4, 5}},
				// Capacity chosen so pairs degrade: 2 cores share 4.0.
				CapacityGBs: 4.0,
			}},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	res, _ := memOverhead(t, m, Options{Seed: 1})
	if len(res.Levels) != 1 {
		t.Fatalf("levels = %d, want 1", len(res.Levels))
	}
	want := [][]int{{0, 1, 2}, {3, 4, 5}}
	if !reflect.DeepEqual(res.Levels[0].Groups, want) {
		t.Errorf("groups = %v, want %v", res.Levels[0].Groups, want)
	}
}
