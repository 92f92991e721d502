// Package topology describes simulated multicore-cluster machines: the
// cache hierarchy (sizes, associativity, indexing, sharing groups),
// the memory system (latency and hierarchical bandwidth domains), the
// interconnection network and the communication-software parameters.
//
// A Machine is a pure description; internal/memsys instantiates its
// memory system and internal/mpisim its communication system. The
// predefined models in models.go mirror the four machines of the
// paper's evaluation (Dunnington, Finis Terrae, Dempsey, Athlon 3200).
package topology

import (
	"fmt"
	"sort"
)

// Indexing states how a cache level is indexed. L1 caches are
// typically virtually indexed; lower levels are physically indexed,
// which is the root cause of the smeared miss transitions the
// probabilistic estimator of the paper deals with.
type Indexing int

const (
	// VirtuallyIndexed caches select the set from the virtual address.
	VirtuallyIndexed Indexing = iota
	// PhysicallyIndexed caches select the set from the physical
	// address, so the OS page placement decides which sets a page maps
	// to.
	PhysicallyIndexed
)

// String implements fmt.Stringer.
func (ix Indexing) String() string {
	switch ix {
	case VirtuallyIndexed:
		return "virtual"
	case PhysicallyIndexed:
		return "physical"
	default:
		return fmt.Sprintf("Indexing(%d)", int(ix))
	}
}

// CacheLevel describes one level of the per-node cache hierarchy.
type CacheLevel struct {
	// Level is 1 for L1, 2 for L2, 3 for L3.
	Level int
	// SizeBytes is the capacity of one cache instance.
	SizeBytes int64
	// Assoc is the number of ways of each set.
	Assoc int
	// LineBytes is the cache line size.
	LineBytes int64
	// LatencyCycles is the additional access cost paid when the lookup
	// reaches this level. The total cost of a hit at level i is the sum
	// of LatencyCycles of levels 1..i.
	LatencyCycles float64
	// Indexing selects virtual or physical set indexing.
	Indexing Indexing
	// Groups lists, for every instance of this cache on a node, the
	// node-local core ids sharing it. The groups must partition the
	// node's cores.
	Groups [][]int
}

// Instances returns the number of cache instances per node.
func (c *CacheLevel) Instances() int { return len(c.Groups) }

// BWDomain is a bandwidth domain of the memory system: a set of cores
// whose concurrent memory traffic shares a capacity (a front-side bus,
// a cell-local memory controller, ...). Domains may nest (a bus inside
// a cell); the effective per-core bandwidth is the max-min fair
// allocation across all domains.
type BWDomain struct {
	// Name labels the domain ("fsb", "bus", "cell", ...).
	Name string
	// Groups lists the node-local core groups, one per domain instance.
	Groups [][]int
	// CapacityGBs is the aggregate bandwidth of one domain instance.
	CapacityGBs float64
}

// Memory describes the per-node memory system.
type Memory struct {
	// LatencyCycles is the additional cost of an access that misses
	// every cache level.
	LatencyCycles float64
	// PerCoreGBs is the streaming bandwidth a single isolated core
	// achieves (the reference value of the Fig. 6 benchmark).
	PerCoreGBs float64
	// Domains are the shared-capacity constraints.
	Domains []BWDomain
}

// Network describes the cluster interconnect (nil for single-node
// machines).
type Network struct {
	// Name labels the fabric ("InfiniBand 20Gbps").
	Name string
	// LatencyUS is the one-way wire+stack latency in microseconds.
	LatencyUS float64
	// BandwidthGBs is the per-direction link bandwidth of one NIC.
	BandwidthGBs float64
	// EagerThresholdBytes is the message size up to which the MPI
	// library sends eagerly over the network; larger messages use the
	// rendezvous protocol.
	EagerThresholdBytes int64
}

// ShmChannel describes one intra-node communication channel of the MPI
// library (transfers through a shared cache level or through main
// memory).
type ShmChannel struct {
	// Name labels the channel ("same-L2", "intra-node", ...).
	Name string
	// SharedCacheLevel is the cache level both cores must share for
	// this channel to apply; 0 means the channel applies to any pair of
	// cores on the same node (memory path).
	SharedCacheLevel int
	// LatencyUS is the one-way latency component in microseconds.
	LatencyUS float64
	// BandwidthGBs is the transfer bandwidth for messages that fit the
	// fast path.
	BandwidthGBs float64
	// LargeBandwidthGBs applies to messages larger than LargeBytes
	// (e.g. messages that no longer fit in the shared cache). Zero
	// means BandwidthGBs applies at every size.
	LargeBandwidthGBs float64
	// LargeBytes is the fast-path capacity (typically half the shared
	// cache size). Zero disables the step-down.
	LargeBytes int64
	// Contended marks channels whose transfers serialize on the
	// per-node shared-memory resource (the memory bus); uncontended
	// channels (private shared caches) scale with the number of pairs.
	Contended bool
}

// Comm bundles the communication-software parameters of the machine's
// MPI library.
type Comm struct {
	// SoftwareOverheadUS is the per-side software cost of a message.
	SoftwareOverheadUS float64
	// EagerThresholdBytes is the shared-memory eager/rendezvous switch.
	EagerThresholdBytes int64
	// Channels are the intra-node channels, most specific first (the
	// first channel whose SharedCacheLevel the pair satisfies wins; a
	// channel with SharedCacheLevel 0 matches any same-node pair).
	Channels []ShmChannel
}

// Machine is a full description of a (simulated) multicore cluster.
type Machine struct {
	// Name identifies the model ("dunnington", ...).
	Name string
	// ClockGHz converts cycles to time.
	ClockGHz float64
	// Nodes is the number of cluster nodes.
	Nodes int
	// CoresPerNode is the number of cores of each node.
	CoresPerNode int
	// PageBytes is the OS page size.
	PageBytes int64
	// PhysPagesPerNode is the number of physical page frames per node.
	// The simulator stores frames and physical cache-line tags in 32
	// bits, so the frame count and every level's physical line count
	// (PhysPagesPerNode·PageBytes / LineBytes) must not exceed 2^32;
	// see CheckPhysBound.
	PhysPagesPerNode int64
	// PageColoring selects the OS page-placement policy: true means
	// the OS colors pages (physical page congruent to virtual page
	// modulo the cache color count), false means Linux-like random
	// placement.
	PageColoring bool
	// PrefetchMaxStrideBytes is the largest constant stride the
	// hardware prefetcher recognizes (the paper cites 256-512 bytes;
	// Servet's 1 KB probe stride is chosen to defeat it).
	PrefetchMaxStrideBytes int64
	// TLBEntries enables a per-core fully-associative TLB model with
	// that many entries (0 disables it — the paper's machines are
	// modelled without one; see the DetectTLB extension probe).
	TLBEntries int
	// TLBMissCycles is the translation-miss penalty when TLBEntries is
	// non-zero.
	TLBMissCycles float64
	// Caches lists the cache levels, L1 first.
	Caches []CacheLevel
	// Memory describes the per-node memory system.
	Memory Memory
	// Net describes the interconnect; nil for single-node machines.
	Net *Network
	// Comm describes the MPI software parameters.
	Comm Comm
	// SuggestedMaxProbeBytes is a hint for the largest array the cache
	// probe should traverse on this machine (large enough to get past
	// the last level's smeared transition). Zero means the suite
	// default applies.
	SuggestedMaxProbeBytes int64
}

// TotalCores returns the number of cores in the whole cluster.
func (m *Machine) TotalCores() int { return m.Nodes * m.CoresPerNode }

// CyclesToNS converts a cycle count to nanoseconds at the machine's
// clock rate.
func (m *Machine) CyclesToNS(cycles float64) float64 { return cycles / m.ClockGHz }

// GlobalCore converts (node, local core) to a cluster-wide core id.
func (m *Machine) GlobalCore(node, local int) int { return node*m.CoresPerNode + local }

// SplitCore converts a cluster-wide core id to (node, local core).
func (m *Machine) SplitCore(global int) (node, local int) {
	return global / m.CoresPerNode, global % m.CoresPerNode
}

// CacheLevelByNumber returns the description of cache level n (1-based)
// or nil if the machine has no such level.
func (m *Machine) CacheLevelByNumber(n int) *CacheLevel {
	for i := range m.Caches {
		if m.Caches[i].Level == n {
			return &m.Caches[i]
		}
	}
	return nil
}

// SharedCacheLevel returns the smallest (fastest) cache level shared by
// two node-local cores, or 0 if they share no cache. Both cores must
// belong to the same node.
func (m *Machine) SharedCacheLevel(localA, localB int) int {
	for _, c := range m.Caches {
		for _, g := range c.Groups {
			inA, inB := false, false
			for _, core := range g {
				if core == localA {
					inA = true
				}
				if core == localB {
					inB = true
				}
			}
			if inA && inB {
				return c.Level
			}
		}
	}
	return 0
}

// CacheInstance returns the index of the level's cache instance that
// serves the given node-local core, or -1 if the core is not covered.
func (c *CacheLevel) CacheInstance(local int) int {
	for i, g := range c.Groups {
		for _, core := range g {
			if core == local {
				return i
			}
		}
	}
	return -1
}

// Validate checks the structural consistency of the machine
// description and returns a descriptive error for the first violation
// found.
func (m *Machine) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("topology: machine has no name")
	}
	if m.ClockGHz <= 0 {
		return fmt.Errorf("topology: %s: clock must be positive", m.Name)
	}
	if m.Nodes < 1 || m.CoresPerNode < 1 {
		return fmt.Errorf("topology: %s: needs at least one node and one core", m.Name)
	}
	if m.PageBytes <= 0 || m.PageBytes&(m.PageBytes-1) != 0 {
		return fmt.Errorf("topology: %s: page size %d is not a positive power of two", m.Name, m.PageBytes)
	}
	if m.PhysPagesPerNode < 1 {
		return fmt.Errorf("topology: %s: needs physical pages", m.Name)
	}
	if len(m.Caches) == 0 {
		return fmt.Errorf("topology: %s: needs at least one cache level", m.Name)
	}
	prevLevel, prevSize := 0, int64(0)
	for i := range m.Caches {
		c := &m.Caches[i]
		if c.Level != prevLevel+1 {
			return fmt.Errorf("topology: %s: cache levels must be consecutive from 1, got L%d after L%d", m.Name, c.Level, prevLevel)
		}
		if c.SizeBytes <= prevSize {
			return fmt.Errorf("topology: %s: L%d size %d not larger than previous level", m.Name, c.Level, c.SizeBytes)
		}
		if c.Assoc < 1 {
			return fmt.Errorf("topology: %s: L%d associativity %d", m.Name, c.Level, c.Assoc)
		}
		if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
			return fmt.Errorf("topology: %s: L%d line size %d is not a positive power of two", m.Name, c.Level, c.LineBytes)
		}
		sets := c.SizeBytes / (c.LineBytes * int64(c.Assoc))
		if sets*c.LineBytes*int64(c.Assoc) != c.SizeBytes || sets < 1 {
			return fmt.Errorf("topology: %s: L%d size %d not divisible into %d-way sets of %d-byte lines", m.Name, c.Level, c.SizeBytes, c.Assoc, c.LineBytes)
		}
		if c.LatencyCycles <= 0 {
			return fmt.Errorf("topology: %s: L%d latency must be positive", m.Name, c.Level)
		}
		if err := validatePartition(c.Groups, m.CoresPerNode); err != nil {
			return fmt.Errorf("topology: %s: L%d groups: %w", m.Name, c.Level, err)
		}
		prevLevel, prevSize = c.Level, c.SizeBytes
	}
	if err := m.CheckPhysBound(); err != nil {
		return err
	}
	if m.TLBEntries > 0 && m.TLBMissCycles <= 0 {
		return fmt.Errorf("topology: %s: TLB model needs a positive miss penalty", m.Name)
	}
	if m.Memory.LatencyCycles <= 0 {
		return fmt.Errorf("topology: %s: memory latency must be positive", m.Name)
	}
	if m.Memory.PerCoreGBs <= 0 {
		return fmt.Errorf("topology: %s: per-core bandwidth must be positive", m.Name)
	}
	for _, d := range m.Memory.Domains {
		if d.CapacityGBs <= 0 {
			return fmt.Errorf("topology: %s: bandwidth domain %q capacity must be positive", m.Name, d.Name)
		}
		if err := validateCover(d.Groups, m.CoresPerNode); err != nil {
			return fmt.Errorf("topology: %s: bandwidth domain %q: %w", m.Name, d.Name, err)
		}
	}
	if m.Nodes > 1 && m.Net == nil {
		return fmt.Errorf("topology: %s: multi-node machine needs a network", m.Name)
	}
	if m.Net != nil {
		if m.Net.LatencyUS <= 0 || m.Net.BandwidthGBs <= 0 {
			return fmt.Errorf("topology: %s: network latency and bandwidth must be positive", m.Name)
		}
	}
	for _, ch := range m.Comm.Channels {
		if ch.LatencyUS < 0 || ch.BandwidthGBs <= 0 {
			return fmt.Errorf("topology: %s: channel %q needs non-negative latency and positive bandwidth", m.Name, ch.Name)
		}
		if ch.SharedCacheLevel != 0 && m.CacheLevelByNumber(ch.SharedCacheLevel) == nil {
			return fmt.Errorf("topology: %s: channel %q references missing cache level %d", m.Name, ch.Name, ch.SharedCacheLevel)
		}
	}
	return nil
}

// MaxPhysIndexes is the largest number of physical page frames, and of
// physical cache lines at any level, a node may have: the memory-system
// simulator stores frame numbers and line tags as 32-bit values.
const MaxPhysIndexes = 1 << 32

// CheckPhysBound returns a descriptive error when the node's physical
// frame count, or its physical line count at some cache level, exceeds
// MaxPhysIndexes. Page and line sizes must be positive powers of two
// (Validate checks them first).
func (m *Machine) CheckPhysBound() error {
	if m.PhysPagesPerNode > MaxPhysIndexes {
		return fmt.Errorf("topology: %s: %d physical pages exceed the 2^32 frame bound", m.Name, m.PhysPagesPerNode)
	}
	for i := range m.Caches {
		c := &m.Caches[i]
		if c.LineBytes <= 0 || c.LineBytes >= m.PageBytes {
			continue // bad sizes are Validate's to report; big lines are bounded by the frames
		}
		if linesPerPage := m.PageBytes / c.LineBytes; m.PhysPagesPerNode > MaxPhysIndexes/linesPerPage {
			return fmt.Errorf("topology: %s: L%d: %d physical pages of %d %d-byte lines exceed the 2^32 line bound",
				m.Name, c.Level, m.PhysPagesPerNode, linesPerPage, c.LineBytes)
		}
	}
	return nil
}

// validatePartition checks that groups exactly partition cores 0..n-1.
func validatePartition(groups [][]int, n int) error {
	seen := make([]bool, n)
	count := 0
	for _, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("empty group")
		}
		for _, c := range g {
			if c < 0 || c >= n {
				return fmt.Errorf("core %d out of range [0,%d)", c, n)
			}
			if seen[c] {
				return fmt.Errorf("core %d in more than one group", c)
			}
			seen[c] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("groups cover %d of %d cores", count, n)
	}
	return nil
}

// validateCover checks that groups are disjoint and within range (they
// need not cover every core: a domain may constrain only part of the
// node).
func validateCover(groups [][]int, n int) error {
	seen := make([]bool, n)
	for _, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("empty group")
		}
		for _, c := range g {
			if c < 0 || c >= n {
				return fmt.Errorf("core %d out of range [0,%d)", c, n)
			}
			if seen[c] {
				return fmt.Errorf("core %d in more than one group", c)
			}
			seen[c] = true
		}
	}
	return nil
}

// PrivateGroups builds one singleton group per core, for private
// caches.
func PrivateGroups(cores int) [][]int {
	g := make([][]int, cores)
	for i := range g {
		g[i] = []int{i}
	}
	return g
}

// GroupsOf builds groups from explicit member lists, sorting each
// group's members ascending.
func GroupsOf(groups ...[]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		cp := append([]int(nil), g...)
		sort.Ints(cp)
		out[i] = cp
	}
	return out
}
