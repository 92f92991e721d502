package memsys

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"servet/internal/topology"
)

// fillModels is every machine model (2 nodes) plus a nehalem2s variant
// with a 16-entry TLB and fractional costs, on which every sum rounds
// and no pass can be replayed arithmetically.
func fillModels() map[string]*topology.Machine {
	models := topology.Models(2)
	frac := topology.Nehalem2S()
	frac.Name = "nehalem2s-frac"
	frac.TLBEntries, frac.TLBMissCycles = 16, 30.7
	frac.Caches[1].LatencyCycles += 0.3
	frac.Memory.LatencyCycles += 0.1
	models[frac.Name] = frac
	return models
}

// passRun is one measurement on a fresh instance and what it leaves
// behind.
type passRun struct {
	total, measured float64
	counts          PassCounts
	state           endState
}

// measureWalk runs a warm-up and `passes` measured strided traversals
// of bytes of a fresh array on core 0 through replayPasses when replay
// is set and simulated pass by pass otherwise.
func measureWalk(m *topology.Machine, bytes, stride int64, passes int, replay bool) passRun {
	in := NewInstanceAt(m, 5)
	sp := in.NewSpace()
	a := sp.Alloc(bytes)
	w := walk{sp: sp, base: a.Base, bytes: a.Bytes, stride: stride}
	var r passRun
	if replay {
		r.counts = in.replayPasses(0, w, passes, &r.total, &r.measured)
	} else {
		in.traverse(0, &w, &r.total, nil)
		for pass := 1; pass <= passes; pass++ {
			in.traverse(0, &w, &r.total, &r.measured)
		}
	}
	r.state = stateOf(in)
	return r
}

// assertSameRun checks a measurement against its simulated twin bit
// for bit: both accumulators and the end state of every cache, TLB
// and prefetcher.
func assertSameRun(t *testing.T, name string, got, want passRun) {
	t.Helper()
	if math.Float64bits(got.total) != math.Float64bits(want.total) || math.Float64bits(got.measured) != math.Float64bits(want.measured) {
		t.Errorf("%s: total/measured %v/%v, simulated %v/%v", name, got.total, got.measured, want.total, want.measured)
	}
	if !slices.Equal(got.state.caches, want.state.caches) {
		t.Errorf("%s: cache contents differ from simulation", name)
	}
	if got.state.cores != want.state.cores {
		t.Errorf("%s: TLB or prefetcher state\n%s\nsimulated\n%s", name, got.state.cores, want.state.cores)
	}
}

// TestDerivedPassMatchesSimulated: on every machine model and the
// fractional-cost variant, probe-stride walks of half, exactly, one
// stride over and twice each level's capacity are filled and then
// derived or simulated, and equal
// simulating every pass bit for bit: totals and end state. A derived
// walk derives its first measured pass and replays the rest; each model
// with integral costs derives some of its walks, and the nehalem2s
// walks all derive. With fractional costs no pass is derived, and every
// measured pass is simulated after the fill. (On athlon3200 the walk
// one stride over the L1 declines: one L1 set then thrashes while the
// others fit, and an L2 set takes lines from both.)
func TestDerivedPassMatchesSimulated(t *testing.T) {
	const stride, passes = 1024, 3
	models := fillModels()
	for _, name := range slices.Sorted(maps.Keys(models)) {
		m := models[name]
		exact := NewInstanceAt(m, 1).exact
		var derived int
		for i := range m.Caches {
			c := m.Caches[i].SizeBytes
			for _, bytes := range []int64{c / 2, c, c + stride, 2 * c} {
				tc := fmt.Sprintf("%s/%d", name, bytes)
				got := measureWalk(m, bytes, stride, passes, true)
				assertSameRun(t, tc, got, measureWalk(m, bytes, stride, passes, false))
				n := bytes / stride
				if got.counts.Filled != n {
					t.Errorf("%s: filled %d accesses, want %d", tc, got.counts.Filled, n)
				}
				switch got.counts.Derived {
				case 0:
					if name == "nehalem2s" {
						t.Errorf("%s: declined to derive", tc)
					}
				case n:
					derived++
					if !exact {
						t.Errorf("%s: derived a pass with fractional costs", tc)
					}
					if got.counts.Derived+got.counts.Replayed != passes*n {
						t.Errorf("%s: derived %d and replayed %d accesses of %d passes of %d", tc, got.counts.Derived, got.counts.Replayed, passes, n)
					}
				default:
					t.Errorf("%s: derived %d accesses, want 0 or %d", tc, got.counts.Derived, n)
				}
			}
		}
		if exact && derived == 0 {
			t.Errorf("%s: no walk derived", name)
		}
	}
}

// TestDerivedPassDeclinesMixedReach: on a machine where one L2 set
// takes lines both from an L1 set they fit in and from one they
// thrash, only some of that L2 set's lines reach it, so the derived
// pass declines: the L1's sets do not nest in the L2's, and some of
// them overflow while others fit. The decline leaves every piece of state — the TLB,
// which the walk thrashes, included — exactly as the fill left it, and
// the simulated passes that follow match simulation bit for bit.
func TestDerivedPassDeclinesMixedReach(t *testing.T) {
	// 16-byte lines, 64-byte pages and a one-entry TLB; the walk is 6
	// accesses, one per line, over 2 pages. Its lines 0–5 fall in
	// direct-mapped L1 sets 0, 1, 2, 3, 0, 1: sets 0 and 1 thrash, 2
	// and 3 fit. All six share the single 5-way L2 set, which lines 2
	// and 3 never reach.
	m := &topology.Machine{
		Name: "mixed-reach", ClockGHz: 1, Nodes: 1, CoresPerNode: 1,
		PageBytes: 64, PhysPagesPerNode: 1 << 10,
		TLBEntries: 1, TLBMissCycles: 30,
		Memory: topology.Memory{LatencyCycles: 100, PerCoreGBs: 1},
		Caches: []topology.CacheLevel{
			{Level: 1, SizeBytes: 4 * 16, Assoc: 1, LineBytes: 16, LatencyCycles: 1,
				Indexing: topology.VirtuallyIndexed, Groups: topology.PrivateGroups(1)},
			{Level: 2, SizeBytes: 5 * 16, Assoc: 5, LineBytes: 16, LatencyCycles: 10,
				Indexing: topology.VirtuallyIndexed, Groups: topology.PrivateGroups(1)},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	const bytes, stride = 6 * 16, 16
	in := NewInstanceAt(m, 1)
	if in.planFor(0)[1].nest != -1 {
		t.Fatal("L1 sets nest in the L2's")
	}
	sp := in.NewSpace()
	a := sp.Alloc(bytes)
	w := walk{sp: sp, base: a.Base, bytes: a.Bytes, stride: stride}
	var sc setCounts
	total, measured := 0.0, 0.0
	if !in.fill(0, &w, &total, &sc) {
		t.Fatalf("the warm-up was not filled")
	}
	before, tlb := stateOf(in), slices.Clone(in.tlbs[0].vpages)
	t0 := total
	if in.derivedPass(0, &w, &sc, &total, &measured) {
		t.Errorf("derived a pass whose L2 set is reached by some of its lines only")
	}
	if after := stateOf(in); !slices.Equal(after.caches, before.caches) || after.cores != before.cores || !slices.Equal(in.tlbs[0].vpages, tlb) {
		t.Errorf("the declined pass moved state: TLB %v, after the fill %v", in.tlbs[0].vpages, tlb)
	}
	if total != t0 || measured != 0 {
		t.Errorf("the declined pass added %v/%v", total-t0, measured)
	}
	for _, passes := range []int{1, 2, 3} {
		name := fmt.Sprintf("%d passes", passes)
		got := measureWalk(m, bytes, stride, passes, true)
		if got.counts.Derived != 0 {
			t.Errorf("%s: derived %d accesses", name, got.counts.Derived)
		}
		assertSameRun(t, name, got, measureWalk(m, bytes, stride, passes, false))
	}
}

// TestCountedCostMatchesIssueOrder: on every fillModels() machine whose
// costs are integral, for walks of half, exactly, one stride over and
// twice each level's capacity, and of twice the TLB's reach where one
// is modelled, so that the TLB misses on every page, the cost of every
// pass provePass proves, counted over the touched sets, equals the sums
// of a simulated pass after the fill, which adds each access's cost in
// issue order, bit for bit. Each such machine proves some of its walks.
func TestCountedCostMatchesIssueOrder(t *testing.T) {
	const stride = 1024
	models := fillModels()
	for _, name := range slices.Sorted(maps.Keys(models)) {
		m := models[name]
		if !NewInstanceAt(m, 1).exact {
			continue
		}
		var sizes []int64
		for i := range m.Caches {
			c := m.Caches[i].SizeBytes
			sizes = append(sizes, c/2, c, c+stride, 2*c)
		}
		if m.TLBEntries > 0 {
			sizes = append(sizes, 2*int64(m.TLBEntries)*m.PageBytes)
		}
		var proved int
		for _, bytes := range sizes {
			in := NewInstanceAt(m, 5)
			sp := in.NewSpace()
			a := sp.Alloc(bytes)
			w := walk{sp: sp, base: a.Base, bytes: a.Bytes, stride: stride}
			var sc setCounts
			var total float64
			if !in.fill(0, &w, &total, &sc) {
				t.Fatalf("%s/%d: the warm-up was not filled", name, bytes)
			}
			plan := in.planFor(0)
			if !in.provePass(plan, &sc) {
				continue
			}
			proved++
			n := w.accesses()
			pages, tlbPage := in.passPages(0, &sc, n)
			counted := in.countedCost(plan, &sc, n, pages, tlbPage)
			var a0, b0 float64
			in.traverse(0, &w, &a0, &b0)
			if math.Float64bits(counted) != math.Float64bits(a0) || math.Float64bits(counted) != math.Float64bits(b0) {
				t.Errorf("%s/%d: counted cost %v, simulated pass %v/%v", name, bytes, counted, a0, b0)
			}
		}
		if proved == 0 {
			t.Errorf("%s: no walk proved", name)
		}
	}
}

// TestDerivedPassDeclinesFractionalCosts: on a machine whose costs are
// not integral, derivedPass declines even a pass whose counted cost is
// an exact integer: ten misses at 1.1 cycles count to exactly 11, while
// adding them in issue order, as a simulated pass does, gives
// 10.999999999999998.
func TestDerivedPassDeclinesFractionalCosts(t *testing.T) {
	m := installMachine("fractional", installLevel(1, 1, topology.VirtuallyIndexed))
	m.Caches[0].LatencyCycles, m.Memory.LatencyCycles = 1, 0.1
	const n, stride = 10, 64
	in := NewInstanceAt(m, 1)
	sp := in.NewSpace()
	a := sp.Alloc(n * stride)
	w := walk{sp: sp, base: a.Base, bytes: a.Bytes, stride: stride}
	var sc setCounts
	var total, measured float64
	if !in.fill(0, &w, &total, &sc) {
		t.Fatal("the warm-up was not filled")
	}
	plan := in.planFor(0)
	if !in.provePass(plan, &sc) {
		t.Fatal("the pass is not proved")
	}
	pages, tlbPage := in.passPages(0, &sc, n)
	counted := in.countedCost(plan, &sc, n, pages, tlbPage)
	total = 0
	if in.derivedPass(0, &w, &sc, &total, &measured) {
		t.Errorf("derived a pass with fractional costs: %v/%v", total, measured)
	}
	in.traverse(0, &w, &total, &measured)
	if counted != 11 || measured == counted {
		t.Errorf("counted cost %v, simulated pass %v; want 11 and a different sum", counted, measured)
	}
}

// TestDerivedPassNestedMixedFullness: on a machine whose L1 sets nest
// in its L2's, a walk overflows some L1 sets and fits in others, so
// only the lines of the overflowing sets reach the L2. Every L2 set
// takes its lines from one L1 set, so each is reached by all of its
// lines or by none, and the pass derives — and matches simulation bit
// for bit — where a pair that did not nest would decline.
func TestDerivedPassNestedMixedFullness(t *testing.T) {
	// 16-byte lines, 64-byte pages and a one-entry TLB; the walk is 6
	// accesses, one per line, over 2 pages. Its lines 0–5 fall in
	// direct-mapped L1 sets 0, 1, 2, 3, 0, 1: sets 0 and 1 thrash, 2
	// and 3 fit. The L1's index bits are the page offset's, which the
	// 8-set, 2-way L2 reads too, from the physical line: L2 set s takes
	// its lines from L1 set s mod 4, and none of them receives more
	// than 2 of the lines that reach it.
	m := &topology.Machine{
		Name: "nested-mixed", ClockGHz: 1, Nodes: 1, CoresPerNode: 1,
		PageBytes: 64, PhysPagesPerNode: 1 << 10,
		TLBEntries: 1, TLBMissCycles: 30,
		Memory: topology.Memory{LatencyCycles: 100, PerCoreGBs: 1},
		Caches: []topology.CacheLevel{
			{Level: 1, SizeBytes: 4 * 16, Assoc: 1, LineBytes: 16, LatencyCycles: 1,
				Indexing: topology.VirtuallyIndexed, Groups: topology.PrivateGroups(1)},
			{Level: 2, SizeBytes: 8 * 2 * 16, Assoc: 2, LineBytes: 16, LatencyCycles: 10,
				Indexing: topology.PhysicallyIndexed, Groups: topology.PrivateGroups(1)},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	const bytes, stride = 6 * 16, 16
	in := NewInstanceAt(m, 1)
	if in.planFor(0)[1].nest != 0 {
		t.Fatalf("L1 sets do not nest in the L2's: nest %d", in.planFor(0)[1].nest)
	}
	sp := in.NewSpace()
	a := sp.Alloc(bytes)
	w := walk{sp: sp, base: a.Base, bytes: a.Bytes, stride: stride}
	var sc setCounts
	var total float64
	if !in.fill(0, &w, &total, &sc) {
		t.Fatalf("the warm-up was not filled")
	}
	var full, fit int
	for _, s := range sc.touched[0] {
		if sc.sets[0][s]&setFull != 0 {
			full++
		} else {
			fit++
		}
	}
	if full != 2 || fit != 2 {
		t.Fatalf("%d full and %d fitting L1 sets, want 2 and 2", full, fit)
	}
	for _, passes := range []int{1, 2, 3} {
		name := fmt.Sprintf("%d passes", passes)
		got := measureWalk(m, bytes, stride, passes, true)
		if got.counts.Derived != bytes/stride {
			t.Errorf("%s: derived %d accesses, want %d", name, got.counts.Derived, bytes/stride)
		}
		assertSameRun(t, name, got, measureWalk(m, bytes, stride, passes, false))
	}
}

// TestNestShift pins when one cache's sets nest in another's, the
// premise of provePass's per-set reach: a's index must be a function
// of b's, read from the same address.
func TestNestShift(t *testing.T) {
	level := func(sets, line int64, virtual bool) *cache {
		ix := topology.PhysicallyIndexed
		if virtual {
			ix = topology.VirtuallyIndexed
		}
		return newCache(&topology.CacheLevel{Level: 1, SizeBytes: sets * line * 2, Assoc: 2, LineBytes: line, Indexing: ix})
	}
	const pageShift = 12 // 4 KiB pages
	for _, tc := range []struct {
		name string
		a, b *cache
		want int
	}{
		{"virtual index inside the page, physical below", level(64, 64, true), level(512, 64, false), 0},
		{"virtual index past the page, physical below", level(512, 64, true), level(1024, 64, false), -1},
		{"both virtual past the page", level(512, 64, true), level(1024, 64, true), 0},
		{"physical above, virtual index inside the page below", level(16, 64, false), level(64, 64, true), 0},
		{"more sets above than below", level(512, 64, false), level(64, 64, false), -1},
		{"set count that does not divide", level(64, 64, false), level(96, 64, false), -1},
		{"modulus of a non-power-of-two set count", level(64, 64, false), level(192, 64, false), 0},
		{"wider lines above", level(64, 128, false), level(512, 64, false), 1},
		{"wider lines above, too few sets below", level(64, 128, false), level(64, 64, false), -1},
		{"narrower lines above", level(64, 32, false), level(512, 64, false), -1},
		{"one set above", level(1, 32, true), level(512, 64, false), 0},
	} {
		if got := nestShift(tc.a, tc.b, pageShift); got != tc.want {
			t.Errorf("%s: nestShift %d, want %d", tc.name, got, tc.want)
		}
	}
}
