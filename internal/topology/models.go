package topology

// Predefined machine models mirroring the four systems of the paper's
// experimental evaluation (Section IV). Cycle latencies, bandwidths and
// MPI software parameters are calibrated to plausible values for the
// era's hardware; the reproduction matches figure shapes, not testbed
// absolutes.

// KB and MB are byte-size helpers used throughout the models.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// Dunnington models the first evaluation machine: a single node with
// four Intel Xeon E7450 (Dunnington) hexacore processors at 2.40 GHz.
// Each processor has a 12 MB L3 shared by its six cores and three 3 MB
// L2 caches shared by core pairs; every core has a private 32 KB L1.
// The OS numbers cores so that core i shares its L2 with core i+12 and
// processor p owns cores {3p..3p+2} ∪ {12+3p..12+3p+2} — the
// non-obvious numbering the paper highlights in Fig. 8(a).
func Dunnington() *Machine {
	const cores = 24
	l2 := make([][]int, 0, 12)
	for i := 0; i < 12; i++ {
		l2 = append(l2, []int{i, i + 12})
	}
	l3 := make([][]int, 0, 4)
	for p := 0; p < 4; p++ {
		l3 = append(l3, []int{3 * p, 3*p + 1, 3*p + 2, 12 + 3*p, 12 + 3*p + 1, 12 + 3*p + 2})
	}
	all := make([]int, cores)
	for i := range all {
		all[i] = i
	}
	return &Machine{
		Name:                   "dunnington",
		ClockGHz:               2.40,
		Nodes:                  1,
		CoresPerNode:           cores,
		PageBytes:              4 * KB,
		PhysPagesPerNode:       1 << 20, // 4 GB
		PageColoring:           false,
		PrefetchMaxStrideBytes: 512,
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 32 * KB, Assoc: 8, LineBytes: 64, LatencyCycles: 3,
				Indexing: VirtuallyIndexed, Groups: PrivateGroups(cores)},
			{Level: 2, SizeBytes: 3 * MB, Assoc: 12, LineBytes: 64, LatencyCycles: 12,
				Indexing: PhysicallyIndexed, Groups: l2},
			{Level: 3, SizeBytes: 12 * MB, Assoc: 24, LineBytes: 64, LatencyCycles: 28,
				Indexing: PhysicallyIndexed, Groups: l3},
		},
		Memory: Memory{
			LatencyCycles: 250,
			PerCoreGBs:    4.0,
			Domains: []BWDomain{
				// A single front-side bus serves all 24 cores: every
				// pair of cores collides with the same magnitude
				// (Fig. 9(a), Dunnington line).
				{Name: "fsb", Groups: [][]int{all}, CapacityGBs: 5.2},
			},
		},
		Comm: Comm{
			SoftwareOverheadUS:  0.30,
			EagerThresholdBytes: 64 * KB,
			Channels: []ShmChannel{
				{Name: "same-L2", SharedCacheLevel: 2, LatencyUS: 0.40,
					BandwidthGBs: 3.0, LargeBandwidthGBs: 1.8, LargeBytes: 3 * MB / 2},
				{Name: "same-L3", SharedCacheLevel: 3, LatencyUS: 0.65,
					BandwidthGBs: 2.4, LargeBandwidthGBs: 1.5, LargeBytes: 6 * MB},
				{Name: "inter-processor", SharedCacheLevel: 0, LatencyUS: 1.20,
					BandwidthGBs: 1.2, Contended: true},
			},
		},
		SuggestedMaxProbeBytes: 40 * MB,
	}
}

// FinisTerrae models the second evaluation machine: the Finis Terrae
// supercomputer's HP RX7640 nodes, each with 8 dual-core Itanium2
// Montvale processors (16 cores) at 1.60 GHz, organized in two cells
// of 8 cores. All caches are private (16 KB L1, 256 KB L2, 9 MB L3);
// memory buses are shared by pairs of processors (groups of 4 cores)
// and each cell has its own memory. Nodes connect through 20 Gbps
// InfiniBand. nodes selects the cluster size (the paper uses 1 node
// for the intra-node benchmarks and 2 nodes for the communication
// benchmarks).
func FinisTerrae(nodes int) *Machine {
	const cores = 16
	bus := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}}
	cell := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13, 14, 15}}
	var net *Network
	if nodes > 1 {
		net = &Network{
			Name:                "InfiniBand 20Gbps",
			LatencyUS:           6.0,
			BandwidthGBs:        1.2,
			EagerThresholdBytes: 32 * KB,
		}
	}
	return &Machine{
		Name:                   "finisterrae",
		ClockGHz:               1.60,
		Nodes:                  nodes,
		CoresPerNode:           cores,
		PageBytes:              4 * KB,
		PhysPagesPerNode:       1 << 20, // 4 GB modelled
		PageColoring:           false,
		PrefetchMaxStrideBytes: 512,
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 16 * KB, Assoc: 4, LineBytes: 64, LatencyCycles: 3,
				Indexing: VirtuallyIndexed, Groups: PrivateGroups(cores)},
			{Level: 2, SizeBytes: 256 * KB, Assoc: 8, LineBytes: 64, LatencyCycles: 9,
				Indexing: PhysicallyIndexed, Groups: PrivateGroups(cores)},
			{Level: 3, SizeBytes: 9 * MB, Assoc: 18, LineBytes: 64, LatencyCycles: 25,
				Indexing: PhysicallyIndexed, Groups: PrivateGroups(cores)},
		},
		Memory: Memory{
			LatencyCycles: 280,
			PerCoreGBs:    3.5,
			Domains: []BWDomain{
				// Buses shared by pairs of processors: the strongest
				// collision (Fig. 9(a), "bus" pairs).
				{Name: "bus", Groups: bus, CapacityGBs: 4.2},
				// Cell-local memory: a milder ~25% penalty for pairs in
				// the same cell on different buses.
				{Name: "cell", Groups: cell, CapacityGBs: 5.25},
			},
		},
		Net: net,
		Comm: Comm{
			SoftwareOverheadUS:  0.50,
			EagerThresholdBytes: 64 * KB,
			Channels: []ShmChannel{
				// All caches are private, so HP MPI's shared-memory
				// device serves every intra-node pair through memory.
				// Concurrent transfers scale: the node's two cells have
				// independent memories, and Fig. 10(b) of the paper
				// attributes Finis Terrae's contention to the
				// InfiniBand, not to SHM.
				{Name: "intra-node", SharedCacheLevel: 0, LatencyUS: 1.50,
					BandwidthGBs: 2.0},
			},
		},
		SuggestedMaxProbeBytes: 32 * MB,
	}
}

// Dempsey models the third machine of Section IV-A: an Intel Xeon 5060
// (Dempsey) dual-core at 3.20 GHz with private 16 KB L1 and 2 MB L2
// caches. Its physically-indexed 2 MB L2 is the paper's example of a
// smeared transition ([512 KB, 2 MB]) where the naive gradient rule
// would report 1 MB and the probabilistic algorithm reports 2 MB.
func Dempsey() *Machine {
	const cores = 2
	return &Machine{
		Name:                   "dempsey",
		ClockGHz:               3.20,
		Nodes:                  1,
		CoresPerNode:           cores,
		PageBytes:              4 * KB,
		PhysPagesPerNode:       1 << 19, // 2 GB
		PageColoring:           false,
		PrefetchMaxStrideBytes: 512,
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 16 * KB, Assoc: 4, LineBytes: 64, LatencyCycles: 3,
				Indexing: VirtuallyIndexed, Groups: PrivateGroups(cores)},
			{Level: 2, SizeBytes: 2 * MB, Assoc: 8, LineBytes: 64, LatencyCycles: 14,
				Indexing: PhysicallyIndexed, Groups: PrivateGroups(cores)},
		},
		Memory: Memory{
			LatencyCycles: 220,
			PerCoreGBs:    3.2,
			Domains: []BWDomain{
				{Name: "fsb", Groups: [][]int{{0, 1}}, CapacityGBs: 4.2},
			},
		},
		Comm: Comm{
			SoftwareOverheadUS:  0.30,
			EagerThresholdBytes: 64 * KB,
			Channels: []ShmChannel{
				{Name: "intra-node", SharedCacheLevel: 0, LatencyUS: 0.90,
					BandwidthGBs: 1.5, Contended: true},
			},
		},
		SuggestedMaxProbeBytes: 8 * MB,
	}
}

// Athlon3200 models the fourth machine of Section IV-A: a unicore AMD
// Athlon 3200 at 2.0 GHz with a 64 KB L1 and a 512 KB L2.
func Athlon3200() *Machine {
	return &Machine{
		Name:                   "athlon3200",
		ClockGHz:               2.00,
		Nodes:                  1,
		CoresPerNode:           1,
		PageBytes:              4 * KB,
		PhysPagesPerNode:       1 << 18, // 1 GB
		PageColoring:           false,
		PrefetchMaxStrideBytes: 512,
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 64 * KB, Assoc: 2, LineBytes: 64, LatencyCycles: 3,
				Indexing: VirtuallyIndexed, Groups: PrivateGroups(1)},
			{Level: 2, SizeBytes: 512 * KB, Assoc: 16, LineBytes: 64, LatencyCycles: 12,
				Indexing: PhysicallyIndexed, Groups: PrivateGroups(1)},
		},
		Memory: Memory{
			LatencyCycles: 200,
			PerCoreGBs:    3.0,
			Domains: []BWDomain{
				{Name: "mem", Groups: [][]int{{0}}, CapacityGBs: 3.0},
			},
		},
		Comm: Comm{
			SoftwareOverheadUS:  0.30,
			EagerThresholdBytes: 64 * KB,
		},
		SuggestedMaxProbeBytes: 4 * MB,
	}
}

// ColoredSMP is a synthetic machine whose OS applies page coloring, so
// the level detector must take the direct (non-probabilistic) path for
// every level. Used by tests of the Fig. 4 decision tree.
func ColoredSMP() *Machine {
	m := Dempsey()
	m.Name = "colored-smp"
	m.PageColoring = true
	return m
}

// SMTQuad is a synthetic 4-core machine where pairs of hardware
// threads share the L1 (an SMT-like design): exercises shared-cache
// detection at level 1, which none of the paper machines has.
func SMTQuad() *Machine {
	const cores = 4
	return &Machine{
		Name:                   "smt-quad",
		ClockGHz:               2.00,
		Nodes:                  1,
		CoresPerNode:           cores,
		PageBytes:              4 * KB,
		PhysPagesPerNode:       1 << 18,
		PageColoring:           false,
		PrefetchMaxStrideBytes: 512,
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 32 * KB, Assoc: 8, LineBytes: 64, LatencyCycles: 3,
				Indexing: VirtuallyIndexed, Groups: GroupsOf([]int{0, 1}, []int{2, 3})},
			{Level: 2, SizeBytes: 1 * MB, Assoc: 8, LineBytes: 64, LatencyCycles: 12,
				Indexing: PhysicallyIndexed, Groups: GroupsOf([]int{0, 1, 2, 3})},
		},
		Memory: Memory{
			LatencyCycles: 220,
			PerCoreGBs:    3.0,
			Domains: []BWDomain{
				{Name: "fsb", Groups: [][]int{{0, 1, 2, 3}}, CapacityGBs: 4.0},
			},
		},
		Comm: Comm{
			SoftwareOverheadUS:  0.30,
			EagerThresholdBytes: 64 * KB,
			Channels: []ShmChannel{
				{Name: "same-L1", SharedCacheLevel: 1, LatencyUS: 0.30, BandwidthGBs: 3.5},
				{Name: "same-L2", SharedCacheLevel: 2, LatencyUS: 0.60, BandwidthGBs: 2.0, Contended: true},
			},
		},
		SuggestedMaxProbeBytes: 4 * MB,
	}
}

// Nehalem2S is a synthetic two-socket NUMA machine beyond the paper's
// testbeds (Nehalem-class): 2 sockets x 4 cores, private 32 KB L1 and
// 256 KB L2, an 8 MB L3 shared per socket, and one memory controller
// per socket — so same-socket cores collide on their controller while
// cross-socket pairs do not, the inverse of Dunnington's single FSB.
func Nehalem2S() *Machine {
	const cores = 8
	sockets := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	return &Machine{
		Name:                   "nehalem2s",
		ClockGHz:               2.67,
		Nodes:                  1,
		CoresPerNode:           cores,
		PageBytes:              4 * KB,
		PhysPagesPerNode:       1 << 20,
		PageColoring:           false,
		PrefetchMaxStrideBytes: 512,
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 32 * KB, Assoc: 8, LineBytes: 64, LatencyCycles: 4,
				Indexing: VirtuallyIndexed, Groups: PrivateGroups(cores)},
			{Level: 2, SizeBytes: 256 * KB, Assoc: 8, LineBytes: 64, LatencyCycles: 7,
				Indexing: PhysicallyIndexed, Groups: PrivateGroups(cores)},
			{Level: 3, SizeBytes: 8 * MB, Assoc: 16, LineBytes: 64, LatencyCycles: 28,
				Indexing: PhysicallyIndexed, Groups: sockets},
		},
		Memory: Memory{
			LatencyCycles: 220,
			PerCoreGBs:    5.5,
			Domains: []BWDomain{
				// One integrated memory controller per socket.
				{Name: "imc", Groups: sockets, CapacityGBs: 9.0},
			},
		},
		Comm: Comm{
			SoftwareOverheadUS:  0.25,
			EagerThresholdBytes: 64 * KB,
			Channels: []ShmChannel{
				{Name: "same-L3", SharedCacheLevel: 3, LatencyUS: 0.50,
					BandwidthGBs: 3.0, LargeBandwidthGBs: 2.0, LargeBytes: 4 * MB},
				{Name: "cross-socket", SharedCacheLevel: 0, LatencyUS: 0.90,
					BandwidthGBs: 1.8, Contended: true},
			},
		},
		SuggestedMaxProbeBytes: 24 * MB,
	}
}

// TLBBox is a synthetic unicore machine with a 64-entry TLB and a
// single 64 KB cache level, for the DetectTLB extension probe: the TLB
// coverage (256 KB) sits far from the cache capacity, so the
// translation-miss transition is clean.
func TLBBox() *Machine {
	return &Machine{
		Name:                   "tlb-box",
		ClockGHz:               2.00,
		Nodes:                  1,
		CoresPerNode:           1,
		PageBytes:              4 * KB,
		PhysPagesPerNode:       1 << 18,
		PageColoring:           false,
		PrefetchMaxStrideBytes: 512,
		TLBEntries:             64,
		TLBMissCycles:          30,
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 64 * KB, Assoc: 8, LineBytes: 64, LatencyCycles: 3,
				Indexing: VirtuallyIndexed, Groups: PrivateGroups(1)},
		},
		Memory: Memory{
			LatencyCycles: 200,
			PerCoreGBs:    3.0,
			Domains: []BWDomain{
				{Name: "mem", Groups: [][]int{{0}}, CapacityGBs: 3.0},
			},
		},
		Comm: Comm{
			SoftwareOverheadUS:  0.30,
			EagerThresholdBytes: 64 * KB,
		},
		SuggestedMaxProbeBytes: 2 * MB,
	}
}

// builders is the one table of predefined models by name. Multi-node
// models receive the node count; the others ignore it.
var builders = map[string]func(nodes int) *Machine{
	"dunnington":  func(int) *Machine { return Dunnington() },
	"finisterrae": FinisTerrae,
	"dempsey":     func(int) *Machine { return Dempsey() },
	"athlon3200":  func(int) *Machine { return Athlon3200() },
	"colored-smp": func(int) *Machine { return ColoredSMP() },
	"smt-quad":    func(int) *Machine { return SMTQuad() },
	"nehalem2s":   func(int) *Machine { return Nehalem2S() },
	"tlb-box":     func(int) *Machine { return TLBBox() },
}

// Model builds the predefined model of the given name, reporting
// false for an unknown name. A multi-node model receives the given
// node count (minimum 1).
func Model(name string, nodes int) (*Machine, bool) {
	build, ok := builders[name]
	if !ok {
		return nil, false
	}
	return build(max(nodes, 1)), true
}

// Models returns every predefined model by name, as used by the
// command-line tools. Multi-node models receive the given node count
// (minimum 1).
func Models(nodes int) map[string]*Machine {
	out := make(map[string]*Machine, len(builders))
	for name := range builders {
		out[name], _ = Model(name, nodes)
	}
	return out
}
