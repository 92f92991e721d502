package topology

import (
	"strings"
	"testing"
)

func TestAllModelsValidate(t *testing.T) {
	for name, m := range Models(2) {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDunningtonTopology(t *testing.T) {
	m := Dunnington()
	if m.TotalCores() != 24 {
		t.Fatalf("cores = %d, want 24", m.TotalCores())
	}
	// The OS numbering of the paper: core 0 shares L2 with core 12.
	if lvl := m.SharedCacheLevel(0, 12); lvl != 2 {
		t.Errorf("SharedCacheLevel(0,12) = %d, want 2", lvl)
	}
	// Cores 0 and 1 share only the L3.
	if lvl := m.SharedCacheLevel(0, 1); lvl != 3 {
		t.Errorf("SharedCacheLevel(0,1) = %d, want 3", lvl)
	}
	// Cores 0 and 3 are on different processors: no shared cache.
	if lvl := m.SharedCacheLevel(0, 3); lvl != 0 {
		t.Errorf("SharedCacheLevel(0,3) = %d, want 0", lvl)
	}
	// The L3 group of core 0 is {0,1,2,12,13,14} (Fig. 8(a)).
	l3 := m.CacheLevelByNumber(3)
	inst := l3.CacheInstance(0)
	want := []int{0, 1, 2, 12, 13, 14}
	got := l3.Groups[inst]
	if len(got) != len(want) {
		t.Fatalf("L3 group = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("L3 group = %v, want %v", got, want)
		}
	}
}

func TestFinisTerraeTopology(t *testing.T) {
	m := FinisTerrae(2)
	if m.TotalCores() != 32 {
		t.Fatalf("cores = %d, want 32", m.TotalCores())
	}
	// All caches private.
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			if lvl := m.SharedCacheLevel(a, b); lvl != 0 {
				t.Fatalf("SharedCacheLevel(%d,%d) = %d, want 0", a, b, lvl)
			}
		}
	}
	if m.Net == nil {
		t.Fatal("2-node Finis Terrae needs a network")
	}
	if FinisTerrae(1).Net != nil {
		t.Error("1-node Finis Terrae must not have a network")
	}
}

func TestGlobalSplitCoreRoundTrip(t *testing.T) {
	m := FinisTerrae(3)
	for g := 0; g < m.TotalCores(); g++ {
		node, local := m.SplitCore(g)
		if back := m.GlobalCore(node, local); back != g {
			t.Fatalf("round trip %d -> (%d,%d) -> %d", g, node, local, back)
		}
		if node < 0 || node >= m.Nodes || local < 0 || local >= m.CoresPerNode {
			t.Fatalf("split out of range: %d -> (%d,%d)", g, node, local)
		}
	}
}

func TestCyclesToNS(t *testing.T) {
	m := Dunnington() // 2.4 GHz
	if got := m.CyclesToNS(240); got != 100 {
		t.Errorf("CyclesToNS(240) = %g, want 100", got)
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m *Machine)
		want   string
	}{
		{"no name", func(m *Machine) { m.Name = "" }, "no name"},
		{"bad clock", func(m *Machine) { m.ClockGHz = 0 }, "clock"},
		{"no cores", func(m *Machine) { m.CoresPerNode = 0 }, "at least one"},
		{"bad page", func(m *Machine) { m.PageBytes = 3000 }, "page size"},
		{"no phys pages", func(m *Machine) { m.PhysPagesPerNode = 0 }, "physical pages"},
		{"frames past 2^32", func(m *Machine) { m.PhysPagesPerNode = MaxPhysIndexes + 1 }, "2^32 frame bound"},
		// 4 KB pages of 64-byte lines: 2^26 frames already number 2^32 lines.
		{"lines past 2^32", func(m *Machine) { m.PhysPagesPerNode = 1<<26 + 1 }, "L1: 67108865 physical pages of 64 64-byte lines exceed the 2^32 line bound"},
		{"no caches", func(m *Machine) { m.Caches = nil }, "cache level"},
		{"non-consecutive levels", func(m *Machine) { m.Caches[1].Level = 3 }, "consecutive"},
		{"shrinking size", func(m *Machine) { m.Caches[1].SizeBytes = m.Caches[0].SizeBytes }, "not larger"},
		{"bad assoc", func(m *Machine) { m.Caches[0].Assoc = 0 }, "associativity"},
		{"bad line", func(m *Machine) { m.Caches[0].LineBytes = 48 }, "line size"},
		{"indivisible", func(m *Machine) { m.Caches[0].SizeBytes = 16*KB + 64 }, "not divisible"},
		{"bad latency", func(m *Machine) { m.Caches[0].LatencyCycles = 0 }, "latency"},
		{"bad groups", func(m *Machine) { m.Caches[0].Groups = [][]int{{0}} }, "groups"},
		{"bad mem latency", func(m *Machine) { m.Memory.LatencyCycles = 0 }, "memory latency"},
		{"bad per-core bw", func(m *Machine) { m.Memory.PerCoreGBs = 0 }, "per-core bandwidth"},
		{"bad domain", func(m *Machine) { m.Memory.Domains[0].CapacityGBs = 0 }, "capacity"},
		{"overlapping domain", func(m *Machine) {
			m.Memory.Domains[0].Groups = [][]int{{0, 1}, {1}}
		}, "more than one group"},
		{"channel bad cache ref", func(m *Machine) {
			m.Comm.Channels = []ShmChannel{{Name: "x", SharedCacheLevel: 9, BandwidthGBs: 1}}
		}, "missing cache level"},
		{"channel bad bw", func(m *Machine) {
			m.Comm.Channels = []ShmChannel{{Name: "x", BandwidthGBs: 0}}
		}, "positive bandwidth"},
	}
	for _, c := range cases {
		m := Dempsey()
		c.mutate(m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a bad machine", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestValidateAcceptsPhysBound: a node whose frames and lines number
// exactly 2^32 is at the bound, not past it; a level whose lines are
// larger than a page is bounded by the frame count alone.
func TestValidateAcceptsPhysBound(t *testing.T) {
	m := Dempsey()
	m.PhysPagesPerNode = 1 << 26 // 2^26 pages x 64 lines = 2^32 lines
	if err := m.Validate(); err != nil {
		t.Errorf("lines at the bound: %v", err)
	}
	m = Dempsey()
	m.PageBytes = 32
	m.PhysPagesPerNode = MaxPhysIndexes
	if err := m.Validate(); err != nil {
		t.Errorf("frames at the bound: %v", err)
	}
}

func TestMultiNodeNeedsNetwork(t *testing.T) {
	m := FinisTerrae(2)
	m.Net = nil
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "network") {
		t.Errorf("Validate = %v, want network error", err)
	}
}

func TestPrivateGroups(t *testing.T) {
	g := PrivateGroups(3)
	if len(g) != 3 || g[0][0] != 0 || g[2][0] != 2 {
		t.Errorf("PrivateGroups = %v", g)
	}
}

func TestGroupsOfSorts(t *testing.T) {
	g := GroupsOf([]int{3, 1, 2})
	if g[0][0] != 1 || g[0][1] != 2 || g[0][2] != 3 {
		t.Errorf("GroupsOf did not sort: %v", g)
	}
}

func TestCacheInstanceMissingCore(t *testing.T) {
	m := Dunnington()
	l2 := m.CacheLevelByNumber(2)
	if got := l2.CacheInstance(99); got != -1 {
		t.Errorf("CacheInstance(99) = %d, want -1", got)
	}
	if m.CacheLevelByNumber(7) != nil {
		t.Error("CacheLevelByNumber(7) should be nil")
	}
}

func TestIndexingString(t *testing.T) {
	if VirtuallyIndexed.String() != "virtual" || PhysicallyIndexed.String() != "physical" {
		t.Error("Indexing.String broken")
	}
	if Indexing(9).String() != "Indexing(9)" {
		t.Error("unknown Indexing.String broken")
	}
}

func TestSuggestedMaxProbeCoversLastLevel(t *testing.T) {
	// The probe must sweep far enough past the last-level cache for the
	// smeared transition to complete (at least 2x the last level).
	for name, m := range Models(1) {
		last := m.Caches[len(m.Caches)-1]
		if m.SuggestedMaxProbeBytes < 2*last.SizeBytes {
			t.Errorf("%s: SuggestedMaxProbeBytes %d < 2x last-level %d",
				name, m.SuggestedMaxProbeBytes, last.SizeBytes)
		}
	}
}
