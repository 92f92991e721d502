package memsys

import (
	"fmt"
	"slices"

	"servet/internal/stats"
	"servet/internal/topology"
)

// planLevel is one step of a core's precomputed access plan: the cache
// instance serving the core at this level. The hot path walks a flat
// slice of these instead of looking the instance up per access; a
// level's latency lives in the instance's cost table.
type planLevel struct {
	c *cache
	// nest is nestShift of the level above and this one: d ≥ 0 when
	// every line of set s here maps to set (s>>d) mod numSets of the
	// level above, −1 when no such parent exists or this is level 0.
	nest int
}

// Instance is the live memory system of one node of a machine: the
// cache instances of every level, the OS page allocator and one
// prefetcher per core.
type Instance struct {
	m *topology.Machine
	// caches[levelIdx][instanceIdx]
	caches [][]*cache
	// plan holds every core's access plan, flattened core-major:
	// plan[core*levels : (core+1)*levels].
	plan   []planLevel
	levels int
	os     *osAllocator
	pref   []*prefetcher
	tlbs   []*tlb // nil entries when the machine models no TLB
	// pageShift/pageMask split an address into (vpage, offset) without
	// division; page sizes are validated powers of two.
	pageShift uint
	pageMask  int64
	memLat    float64
	tlbMiss   float64
	// exact records integralCosts: AccessStridePasses may replay a
	// fixed-point pass arithmetically.
	exact bool
	// costs is the lookup-cost table, one for every core, since every
	// core's plan has the same levels with the same latencies:
	// costs[t][k], with t 1 after a TLB miss, is the TLB term plus the
	// latencies of plan levels 0..k-1, added left to right, and
	// costs[t][levels+1] adds the memory latency to costs[t][levels]. A
	// hit at level h costs costs[t][h+1], a miss everywhere
	// costs[t][levels+1]; every cost an access is charged is read here.
	costs    [2][]float64
	spaceSeq int64
	// spaces pools every Space ever created, in creation order. ResetAt
	// rewinds spaceSeq and recycles them; NewSpace then hands the pooled
	// spaces out again before allocating new ones.
	spaces []*Space
	// rc is RunConcurrentInto's reusable interleaver scratch.
	rc runScratch
	// pend is the end state measurements proved but did not install
	// (settle.go).
	pend pending
	// installVisits counts the (access, level) pairs install visited
	// since takeWork last read them. Nothing else reads it, and resets
	// leave it, so every install is reported once.
	installVisits int64
}

// placementDomain separates the page-placement hash from every other
// MixKeys consumer (measurement noise folds the same seed and
// measurement keys), so the placement stream and the noise stream of
// one measurement are independent.
const placementDomain int64 = 0x706c6163 // "plac"

// NewInstance builds the memory system of one node. The seed drives
// the OS page placement (and nothing else), so runs are reproducible.
func NewInstance(m *topology.Machine, seed int64) *Instance {
	return NewInstanceAt(m, seed)
}

// NewInstanceAt builds the memory system of one node with page
// placement seeded by (seed, keys...): by convention the probe family
// plus the indices of the measurement the instance serves. Placement
// inside the instance is stateless — a pure function of the derived
// placement seed, the space and the virtual page — so every
// measurement of a sharded sweep gets an identical-by-construction
// memory system no matter which worker builds it or in what order.
//
// It panics on a machine it cannot model: a page size that is not a
// positive power of two, a cache level newCache rejects, or more
// physical frames or lines than 32-bit frames and tags can number
// (topology.Machine.CheckPhysBound).
func NewInstanceAt(m *topology.Machine, seed int64, keys ...int64) *Instance {
	if m.PageBytes <= 0 || m.PageBytes&(m.PageBytes-1) != 0 {
		panic(fmt.Sprintf("memsys: page size %d bytes is not a positive power of two", m.PageBytes))
	}
	in := &Instance{m: m, levels: len(m.Caches), memLat: m.Memory.LatencyCycles, tlbMiss: m.TLBMissCycles}
	for ps := m.PageBytes; ps > 1; ps >>= 1 {
		in.pageShift++
	}
	in.pageMask = m.PageBytes - 1
	in.caches = make([][]*cache, len(m.Caches))
	for li := range m.Caches {
		spec := &m.Caches[li]
		in.caches[li] = make([]*cache, spec.Instances())
		for i := range in.caches[li] {
			in.caches[li][i] = newCache(spec)
		}
	}
	// newCache has validated every line size, so the bound is computable.
	if err := m.CheckPhysBound(); err != nil {
		panic(fmt.Sprintf("memsys: %v", err))
	}
	in.plan = make([]planLevel, m.CoresPerNode*in.levels)
	for core := 0; core < m.CoresPerNode; core++ {
		for li := range m.Caches {
			pl := planLevel{c: in.caches[li][m.Caches[li].CacheInstance(core)], nest: -1}
			if li > 0 {
				pl.nest = nestShift(in.plan[core*in.levels+li-1].c, pl.c, in.pageShift)
			}
			in.plan[core*in.levels+li] = pl
		}
	}
	in.os = newOSAllocator(placementSeed(seed, keys), m.PhysPagesPerNode, m.PageColoring, colorCount(m))
	in.pref = make([]*prefetcher, m.CoresPerNode)
	in.tlbs = make([]*tlb, m.CoresPerNode)
	for i := range in.pref {
		in.pref[i] = &prefetcher{maxStride: m.PrefetchMaxStrideBytes}
		in.tlbs[i] = newTLB(m.TLBEntries)
	}
	in.exact = in.integralCosts()
	for t := range in.costs {
		row := make([]float64, in.levels+2)
		if t == 1 {
			row[0] += in.tlbMiss
		}
		for k := range m.Caches {
			row[k+1] = row[k] + m.Caches[k].LatencyCycles
		}
		row[in.levels+1] = row[in.levels] + in.memLat
		in.costs[t] = row
	}
	return in
}

// nestShift reports how the sets of cache a nest in those of cache b:
// it returns d ≥ 0 when every line that maps to set s of b maps to set
// (s>>d) mod a.numSets of a, and −1 when no such function exists. A
// cache with one set nests in any. Otherwise both must read the same
// address, and a's index bits must lie among b's: a's lines are 2^d of
// b's and 2^d·a.numSets divides b.numSets. A virtually indexed cache
// reads the same bits as a physically indexed one when its index stays
// inside the page offset (pageLocal).
func nestShift(a, b *cache, pageShift uint) int {
	if a.numSets == 1 {
		return 0
	}
	if a.virtual != b.virtual && !a.pageLocal(pageShift) && !b.pageLocal(pageShift) {
		return -1
	}
	if a.lineBits < b.lineBits {
		return -1
	}
	d := a.lineBits - b.lineBits
	if b.numSets%(a.numSets<<d) != 0 {
		return -1
	}
	return int(d)
}

// placementSeed derives the page-placement seed from (seed, keys...)
// — the same fold as stats.MixKeys(placementDomain, seed, keys...),
// written incrementally so ResetAt's hot path never materializes the
// combined key slice.
func placementSeed(seed int64, keys []int64) int64 {
	h := stats.Mix64(uint64(placementDomain))
	h = stats.Mix64(h ^ uint64(seed))
	for _, k := range keys {
		h = stats.Mix64(h ^ uint64(k))
	}
	return int64(h)
}

// ResetAt returns the instance to the state NewInstanceAt(m, seed,
// keys...) would build — reseeded page placement, empty caches, TLBs,
// prefetchers, page tables and frame bitset —
// while retaining every backing capacity. The hard invariant: a reset
// instance is bitwise-equivalent to a freshly built one, reproducing
// identical access traces, translations and RunConcurrentInto statistics.
// Every Space and Array handed out before the reset is invalidated;
// NewSpace recycles them in creation order. In steady state (once the
// instance has served a measurement of each shape) a full reset-and-
// measure cycle allocates nothing.
func (in *Instance) ResetAt(seed int64, keys ...int64) {
	in.ResetCaches()
	in.os.reset(placementSeed(seed, keys))
	for _, sp := range in.spaces {
		sp.recycle()
	}
	in.spaceSeq = 0
}

// colorCount derives the OS page-coloring modulus from the largest
// physically indexed cache: size / (assoc * page).
func colorCount(m *topology.Machine) int64 {
	colors := int64(1)
	for i := range m.Caches {
		c := &m.Caches[i]
		if c.Indexing != topology.PhysicallyIndexed {
			continue
		}
		n := c.SizeBytes / (int64(c.Assoc) * m.PageBytes)
		if n > colors {
			colors = n
		}
	}
	return colors
}

// Machine returns the machine description this instance simulates.
func (in *Instance) Machine() *topology.Machine { return in.m }

// NewSpace creates a fresh address space. Spaces start at staggered
// virtual bases so allocations in different spaces never alias, and
// the space's sequence number keys its page placement: the k-th space
// of any instance with the same placement seed draws the same frames.
func (in *Instance) NewSpace() *Space {
	idx := int(in.spaceSeq)
	in.spaceSeq++
	// After a ResetAt the pool holds recycled spaces; the k-th NewSpace
	// call always yields the same id, so placement — keyed by (seed,
	// id, vpage) — is identical whether the space is pooled or fresh.
	if idx < len(in.spaces) {
		sp := in.spaces[idx]
		sp.id = in.spaceSeq
		sp.nextV = in.spaceSeq << 44
		return sp
	}
	sp := &Space{
		in:    in,
		id:    in.spaceSeq,
		nextV: in.spaceSeq << 44,
	}
	in.spaces = append(in.spaces, sp)
	return sp
}

// planFor returns the core's access plan.
func (in *Instance) planFor(core int) []planLevel {
	return in.plan[core*in.levels : (core+1)*in.levels : (core+1)*in.levels]
}

// Access performs one load by the given core at vaddr in the space and
// returns its cost in cycles: the sum of the latencies of every level
// visited, plus the memory latency if all levels miss. Lines fill into
// every level they traverse. The core's prefetcher observes the access
// and may install the next line at no cost (stopping at page
// boundaries, as hardware prefetchers do).
func (in *Instance) Access(core int, sp *Space, vaddr int64) float64 {
	if in.pend.waiting() {
		in.settle()
	}
	return in.accessOne(in.planFor(core), 0, core, sp, vaddr)
}

// accessOne is the hot path shared by Access and the concurrent-stream
// interleaver, which resolve the core's plan themselves.
func (in *Instance) accessOne(plan []planLevel, skip, core int, sp *Space, vaddr int64) float64 {
	return in.accessAt(plan, skip, core, vaddr, sp.translate(vaddr), vaddr>>in.pageShift)
}

// accessAt performs one access whose translation the caller already
// resolved: paddr is vaddr's physical address and vpage its virtual
// page. The strided run translates once per page crossing and feeds
// every access of the page through here. The access looks its line up
// from plan level skip on and costs in.costs[t][h+1], with t 1 after a
// TLB miss and h the level it hits at (len(plan) on a miss everywhere):
// the TLB term plus the latencies of levels 0..h, and the memory
// latency after a miss. A coupled stream that skips its private prefix
// therefore pays, bit for bit, what a lookup of every level that misses
// there would; every other caller skips no level.
func (in *Instance) accessAt(plan []planLevel, skip, core int, vaddr, paddr, vpage int64) float64 {
	t := 0
	if tl := in.tlbs[core]; tl != nil && !tl.access(vpage) {
		t = 1
	}
	h := skip
	for ; h < len(plan); h++ {
		c := plan[h].c
		if c.access(vaddr>>c.lineBits, paddr>>c.lineBits) {
			break
		}
	}
	cost := in.costs[t][h+1]
	if next, ok := in.pref[core].observe(vaddr, in.pageShift); ok {
		// observe never crosses the page boundary, so next shares
		// vaddr's page: it is mapped, and its frame is vaddr's. Install
		// the prefetched line into every level, cost-free.
		npaddr := paddr&^in.pageMask + next&in.pageMask
		for i := range plan {
			c := plan[i].c
			c.access(next>>c.lineBits, npaddr>>c.lineBits)
		}
	}
	return cost
}

// AccessStrideAccum performs one core's strided traversal — base,
// base+stride, ... while the offset stays below bytes — in issue order,
// with the per-core plan lookup amortized over the whole run. It is
// exactly an Access loop for callers that thread their own
// accumulators: each access's cost is added to *sumA — and to *sumB
// when non-nil — in issue order, preserving the exact float summation
// order of the probe loops (a running total plus a measured-pass
// total). Like Access, it first settles the pending end state, whose
// install visits the next measurement reports.
func (in *Instance) AccessStrideAccum(core int, sp *Space, base, bytes, stride int64, sumA, sumB *float64) {
	in.traverse(core, &walk{sp: sp, base: base, bytes: bytes, stride: stride}, sumA, sumB)
}

// ResetCaches empties every cache instance, TLB and prefetcher,
// leaving page tables intact, and drops the pending end state unbuilt.
// Probes call it between measurements. Cache backing arrays keep their
// capacity — see cache.reset.
func (in *Instance) ResetCaches() {
	in.dropPending()
	for _, level := range in.caches {
		for _, c := range level {
			c.reset()
		}
	}
	for _, p := range in.pref {
		p.reset()
	}
	for _, t := range in.tlbs {
		if t != nil {
			t.reset()
		}
	}
}

// Stream is one core's scripted access sequence for concurrent
// execution: the addresses of a single traversal, replayed for a
// number of passes.
type Stream struct {
	// Core is the node-local core executing the stream.
	Core int
	// Space is the address space of the stream's process.
	Space *Space
	// Addrs is one traversal's address sequence.
	Addrs []int64
}

// StreamStats accumulates the measured portion of a stream.
type StreamStats struct {
	// Accesses counts measured accesses (warm-up pass excluded).
	Accesses int64
	// Cycles is the total measured cost.
	Cycles float64
}

// AvgCycles returns the mean cycles per access of the measured passes.
func (s StreamStats) AvgCycles() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return s.Cycles / float64(s.Accesses)
}

// streamState is one stream's interleaver cursor and local clock, and
// the strided walk its addresses rise by, whose stride is 0 when they
// do not rise at one stride.
type streamState struct {
	clock float64
	pos   int
	pass  int
	w     walk
}

// runScratch holds RunConcurrentInto's per-call buffers — stream
// states, the ascending index slice of the coupled streams, the levels
// each coupled stream skips and the walks of fillCoupled's merged run —
// pooled on the Instance so a reset-and-measure cycle reruns
// concurrent streams without allocating.
type runScratch struct {
	st    []streamState
	idx   []int32
	skips []int
	warm  []levelWalk
}

// grab returns the scratch sized for ns streams, growing the slabs
// only when a wider run arrives. skips and warm are sized along with
// them; every stream state and skip starts at zero.
func (rc *runScratch) grab(ns int) ([]streamState, []int32) {
	if cap(rc.st) < ns {
		rc.st = make([]streamState, ns)
		rc.idx = make([]int32, 0, ns)
		rc.skips = make([]int, ns)
		rc.warm = make([]levelWalk, 0, ns)
	}
	clear(rc.skips[:ns])
	st := rc.st[:ns]
	clear(st)
	return st, rc.idx[:0]
}

// earliest returns the position in idx, an ascending slice of stream
// indices, of the stream that issues next: the one with the smallest
// local clock, ties going to the lower index.
func earliest(idx []int32, st []streamState) int {
	k := 0
	for j := 1; j < len(idx); j++ {
		if st[idx[j]].clock < st[idx[k]].clock {
			k = j
		}
	}
	return k
}

// RunConcurrentInto interleaves the streams in virtual-time order and
// writes each stream's statistics into stats, whose length must equal
// len(streams): at each step the stream with the smallest local clock
// issues its next access, ties going to the lower stream index. Each
// stream performs `passes` traversals; the first pass of each stream is
// warm-up and excluded from its statistics, mirroring the
// array-initialization warming of the mcalibrator code in Fig. 1 of the
// paper. Concurrent streams hitting a shared cache thrash each other
// exactly as the Fig. 5 benchmark expects.
//
// Each non-empty stream whose addresses rise at one positive stride is
// turned into a strided walk once (constantStride); the lone-stream
// replay, fillCoupled, runStacked and install read those walks, not
// the address lists. Only coupled streams interleave: those with
// another non-empty stream on the same core, or whose core's plan holds
// a cache another non-empty stream's plan holds too. An access costs
// what the caches on its core's plan, the core's TLB and its
// prefetcher make it cost — translation is pure and Access models no
// contention — so the issue order across streams cannot change the
// cost of any access of a stream that is not coupled. Such a stream
// runs alone, with its sums still accumulated in issue order: through
// the steady-state replay of AccessStridePasses when it is a walk, and
// through the interleaver on its own otherwise. The coupled streams
// interleave, each step scanning them in index order for the smallest
// (clock, index). Their cold warm-up is first filled up to the first
// access of any measured pass, when fillCoupled can prove that every
// access before it misses at every level: then the issue order follows
// from the known miss costs, and install builds the warm-up's lines in
// one reverse sweep of that merged order. The same fill proves that
// every access of a coupled stream misses at its private prefix, the
// leading private levels at which every set its walk touches
// overflows, where the stream's whole walk is then the state the run
// leaves. Each later access of the stream starts its lookup at the
// next level, with the prefix's latencies charged from the lookup-cost
// table, so coupled streams are simulated only from there on.
//
// A filled run of exactly two coupled streams whose private prefixes
// cover every plan level but the last, which both plans share — a
// nehalem2s same-socket pair over the L3, a dunnington pair sharing
// only the L3 — is not looked up at all after its fill: every access of
// either stream reaches that level and no other, so runStacked decides
// each from its LRU stack distance there in O(1). A line hits iff it
// was accessed before and either fewer than assoc accesses to its set
// came since or the two walks map no more than assoc lines to the set.
//
// The statistics and the end state every later call observes are the
// reference interleaver's bit for bit. RunConcurrentInto first settles
// the instance's pending end state, and it leaves pending the runs no
// access of its own reads: the walks of the strided streams it filled
// alone, the coupled streams' private prefixes and a stacked pair's
// shared level (settle.go).
//
// The interleaver's buffers are pooled on the instance, so a warm
// caller pays zero allocations per run. RunConcurrentInto returns how
// many accesses were not simulated one by one: those of the strided
// streams that ran alone (see AccessStridePasses), the coupled warm-up
// accesses it filled and the accesses runStacked decided. A coupled
// access simulated only at the shared levels still counts as simulated.
// Like AccessStridePasses, it also returns the work the instance
// counted since the last measurement took it (takeWork): install
// visits, its own included, pages placed and placement retries.
func RunConcurrentInto(in *Instance, streams []Stream, passes int, stats []StreamStats) (counts PassCounts) {
	if len(stats) != len(streams) {
		panic(fmt.Sprintf("memsys: stats buffer for %d streams has length %d", len(streams), len(stats)))
	}
	clear(stats)
	if passes < 2 {
		passes = 2
	}
	in.settle()
	st, idx := in.rc.grab(len(streams))
	for i := range streams {
		str := &streams[i]
		if len(str.Addrs) == 0 {
			continue
		}
		st[i].w = constantStride(str.Space, str.Addrs)
		if in.coupled(streams, i) {
			idx = append(idx, int32(i))
			continue
		}
		if w := st[i].w; w.stride > 0 {
			counts.add(in.replayPasses(str.Core, w, passes-1, &st[i].clock, &stats[i].Cycles))
			stats[i].Accesses = int64(passes-1) * w.accesses()
			continue
		}
		lone := [1]int32{int32(i)}
		in.interleave(streams, lone[:], st, passes, stats)
	}
	if len(idx) > 1 {
		order := issueOrders.get()
		defer issueOrders.put(order)
		fill, warm := in.fillCoupled(streams, idx, st, order)
		counts.add(fill)
		switch {
		case fill.Filled == 0:
		case in.stackable(streams, idx, st, passes):
			counts.add(in.runStacked(streams, idx, st, passes, stats, *order))
			idx = idx[:0] // runStacked finished the run
		default:
			in.install(warm)
		}
	}
	in.interleave(streams, idx, st, passes, stats)
	in.takeWork(&counts)
	return counts
}

// interleave runs the streams in idx, an ascending slice of stream
// indices, from their cursors in st to the end of their last pass: at
// each step the stream earliest picks issues its next access, looked
// up from the level after its private prefix, and the cost goes to its
// clock and, in a measured pass, to its statistics. A stream leaves idx
// when it finishes, so idx's elements are overwritten.
func (in *Instance) interleave(streams []Stream, idx []int32, st []streamState, passes int, stats []StreamStats) {
	for len(idx) > 0 {
		k := earliest(idx, st)
		i := idx[k]
		s, str := &st[i], &streams[i]
		cost := in.accessOne(in.planFor(str.Core), in.rc.skips[i], str.Core, str.Space, str.Addrs[s.pos])
		s.clock += cost
		if s.pass > 0 {
			stats[i].Accesses++
			stats[i].Cycles += cost
		}
		if s.pos++; s.pos == len(str.Addrs) {
			s.pos = 0
			if s.pass++; s.pass == passes {
				idx = slices.Delete(idx, k, k+1)
			}
		}
	}
}

// coupled reports whether stream i can interact with another non-empty
// stream: one runs on the same core, or its core's plan holds one of
// the caches on stream i's plan. A cache instance serves one level, so
// the plans are compared level by level.
func (in *Instance) coupled(streams []Stream, i int) bool {
	core := streams[i].Core
	plan := in.planFor(core)
	for j := range streams {
		if j == i || len(streams[j].Addrs) == 0 {
			continue
		}
		if streams[j].Core == core {
			return true
		}
		for li, pl := range in.planFor(streams[j].Core) {
			if pl.c == plan[li].c {
				return true
			}
		}
	}
	return false
}
