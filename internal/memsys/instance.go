package memsys

import (
	"fmt"

	"servet/internal/stats"
	"servet/internal/topology"
)

// planLevel is one step of a core's precomputed access plan: the cache
// instance serving the core at this level and the level's latency. The
// hot path walks a flat slice of these instead of chasing
// caches[li][coreCache[li][core]] per access.
type planLevel struct {
	c       *cache
	latency float64
}

// xlatEntry is a core's one-entry translation cache: the page it last
// translated. A strided run translates once per page instead of once
// per access. The generation pins the entry to the space's page table
// version, so a Free (TLB shootdown) invalidates it.
type xlatEntry struct {
	sp    *Space
	gen   int64
	vpage int64
	pbase int64
}

// Instance is the live memory system of one node of a machine: the
// cache instances of every level, the OS page allocator and one
// prefetcher per core.
type Instance struct {
	m *topology.Machine
	// caches[levelIdx][instanceIdx]
	caches [][]*cache
	// coreCache[levelIdx][core] = index of the instance serving core
	coreCache [][]int
	// plan holds every core's access plan, flattened core-major:
	// plan[core*levels : (core+1)*levels].
	plan   []planLevel
	levels int
	os     *osAllocator
	pref   []*prefetcher
	tlbs   []*tlb // nil entries when the machine models no TLB
	xlat   []xlatEntry
	// pageShift/pageMask split an address into (vpage, offset) without
	// division; page sizes are validated powers of two.
	pageShift uint
	pageMask  int64
	memLat    float64
	tlbMiss   float64
	spaceSeq  int64
	// spaces pools every Space ever created, in creation order. ResetAt
	// rewinds spaceSeq and recycles them; NewSpace then hands the pooled
	// spaces out again before allocating new ones.
	spaces []*Space
	// rc is RunConcurrent's reusable interleaver scratch.
	rc runScratch
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
	in.coreCache = make([][]int, len(m.Caches))
	for li := range m.Caches {
		spec := &m.Caches[li]
		in.caches[li] = make([]*cache, spec.Instances())
		for i := range in.caches[li] {
			in.caches[li][i] = newCache(spec)
		}
		in.coreCache[li] = make([]int, m.CoresPerNode)
		for core := 0; core < m.CoresPerNode; core++ {
			in.coreCache[li][core] = spec.CacheInstance(core)
		}
	}
	// newCache has validated every line size, so the bound is computable.
	if err := m.CheckPhysBound(); err != nil {
		panic(fmt.Sprintf("memsys: %v", err))
	}
	in.plan = make([]planLevel, m.CoresPerNode*in.levels)
	for core := 0; core < m.CoresPerNode; core++ {
		for li := range m.Caches {
			in.plan[core*in.levels+li] = planLevel{
				c:       in.caches[li][in.coreCache[li][core]],
				latency: m.Caches[li].LatencyCycles,
			}
		}
	}
	in.os = newOSAllocator(placementSeed(seed, keys), m.PhysPagesPerNode, m.PageColoring, colorCount(m))
	in.pref = make([]*prefetcher, m.CoresPerNode)
	in.tlbs = make([]*tlb, m.CoresPerNode)
	in.xlat = make([]xlatEntry, m.CoresPerNode)
	for i := range in.pref {
		in.pref[i] = &prefetcher{maxStride: m.PrefetchMaxStrideBytes}
		in.tlbs[i] = newTLB(m.TLBEntries)
	}
	return in
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
// prefetchers, translation caches, page tables and frame bitset —
// while retaining every backing capacity. The hard invariant: a reset
// instance is bitwise-equivalent to a freshly built one, reproducing
// identical access traces, translations and RunConcurrent statistics.
// Every Space and Array handed out before the reset is invalidated;
// NewSpace recycles them in creation order. In steady state (once the
// instance has served a measurement of each shape) a full reset-and-
// measure cycle allocates nothing.
func (in *Instance) ResetAt(seed int64, keys ...int64) {
	in.ResetCaches()
	clear(in.xlat)
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

// translateFor translates vaddr in the space through the core's
// one-entry translation cache; misses walk the space's page table and
// refill the entry.
func (in *Instance) translateFor(core int, sp *Space, vaddr int64) int64 {
	vpage := vaddr >> in.pageShift
	e := &in.xlat[core]
	if e.sp == sp && e.vpage == vpage && e.gen == sp.gen {
		return e.pbase + (vaddr & in.pageMask)
	}
	paddr := sp.translate(vaddr)
	*e = xlatEntry{sp: sp, gen: sp.gen, vpage: vpage, pbase: paddr &^ in.pageMask}
	return paddr
}

// Access performs one load by the given core at vaddr in the space and
// returns its cost in cycles: the sum of the latencies of every level
// visited, plus the memory latency if all levels miss. Lines fill into
// every level they traverse. The core's prefetcher observes the access
// and may install the next line at no cost (stopping at page
// boundaries, as hardware prefetchers do).
func (in *Instance) Access(core int, sp *Space, vaddr int64) float64 {
	return in.accessOne(in.planFor(core), core, sp, vaddr)
}

// accessOne is the hot path shared by Access and AccessRun: the plan
// is resolved by the caller so batched runs pay the per-core lookups
// once.
func (in *Instance) accessOne(plan []planLevel, core int, sp *Space, vaddr int64) float64 {
	vpage := vaddr >> in.pageShift
	return in.accessAt(plan, core, sp, vaddr, in.translateFor(core, sp, vaddr), vpage)
}

// accessAt performs one access whose translation the caller already
// resolved: paddr is vaddr's physical address and vpage its virtual
// page. The strided run translates once per page crossing and feeds
// every access of the page through here.
func (in *Instance) accessAt(plan []planLevel, core int, sp *Space, vaddr, paddr, vpage int64) float64 {
	cost := 0.0
	if t := in.tlbs[core]; t != nil && !t.access(vpage) {
		cost += in.tlbMiss
	}
	hit := false
	for i := range plan {
		pl := &plan[i]
		cost += pl.latency
		if pl.c.access(vaddr>>pl.c.lineBits, paddr>>pl.c.lineBits) {
			hit = true
			break
		}
	}
	if !hit {
		cost += in.memLat
	}
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

// AccessRun performs one core's scripted accesses in issue order and
// returns the access count and their total cost. It is exactly an
// Access loop — each access's cost is added to a zero accumulator in
// issue order, so the returned cycles are bit-identical to summing
// Access results — with the per-core plan, TLB and prefetcher lookups
// amortized over the whole run.
func (in *Instance) AccessRun(core int, sp *Space, addrs []int64) (n int64, cycles float64) {
	in.AccessRunAccum(core, sp, addrs, &cycles, nil)
	return int64(len(addrs)), cycles
}

// AccessRunAccum is AccessRun for callers that thread their own
// accumulators: each access's cost is added to *sumA — and to *sumB
// when non-nil — in issue order, preserving the exact float summation
// order of the probe loops (a running total plus a measured-pass
// total), so batched traversals stay byte-identical to per-access
// ones.
func (in *Instance) AccessRunAccum(core int, sp *Space, addrs []int64, sumA, sumB *float64) {
	plan := in.planFor(core)
	a := *sumA
	if sumB == nil {
		for _, vaddr := range addrs {
			a += in.accessOne(plan, core, sp, vaddr)
		}
		*sumA = a
		return
	}
	b := *sumB
	for _, vaddr := range addrs {
		c := in.accessOne(plan, core, sp, vaddr)
		a += c
		b += c
	}
	*sumA = a
	*sumB = b
}

// AccessStrideAccum is AccessRunAccum for one strided traversal —
// base, base+stride, ... while the offset stays below bytes — without
// materializing the address slice. The mcalibrator-style probes
// traverse multi-megabyte arrays per measurement; skipping the slice
// removes that much allocation and memory traffic from every pass.
func (in *Instance) AccessStrideAccum(core int, sp *Space, base, bytes, stride int64, sumA, sumB *float64) {
	plan := in.planFor(core)
	shift, mask := in.pageShift, in.pageMask
	// Translate only on page crossings: the page table walk (and the
	// per-core translation-cache probe) drops out of the per-access
	// work entirely. Translation is cost-free in the model — the TLB,
	// which does cost, is probed inside accessAt as always — so the
	// returned cycles are identical to the per-access path.
	curVpage, pbase := int64(-1), int64(0)
	a := *sumA
	var b float64
	if sumB != nil {
		b = *sumB
	}
	for off := int64(0); off < bytes; off += stride {
		vaddr := base + off
		vpage := vaddr >> shift
		if vpage != curVpage {
			pbase = sp.translate(vaddr) &^ mask
			curVpage = vpage
		}
		c := in.accessAt(plan, core, sp, vaddr, pbase+vaddr&mask, vpage)
		a += c
		if sumB != nil {
			b += c
		}
	}
	*sumA = a
	if sumB != nil {
		*sumB = b
	}
}

// Cached reports whether the line containing vaddr is present at the
// given cache level (1-based) for the core. Test helper.
func (in *Instance) Cached(level, core int, sp *Space, vaddr int64) bool {
	li := level - 1
	c := in.caches[li][in.coreCache[li][core]]
	return c.contains(vaddr>>c.lineBits, sp.translate(vaddr)>>c.lineBits)
}

// ResetCaches empties every cache instance and prefetcher, leaving
// page tables intact. Probes call it between measurements. Cache
// backing arrays keep their capacity — see cache.reset.
func (in *Instance) ResetCaches() {
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

// streamHeap is a binary min-heap of stream indices ordered by
// (clock, index): the stream RunConcurrent issues next. It replaces
// the O(streams) min-clock scan of the interleaver with O(log
// streams) sift operations.
type streamHeap struct {
	idx    []int32
	clocks []float64
}

func (h *streamHeap) less(a, b int32) bool {
	if h.clocks[a] != h.clocks[b] {
		return h.clocks[a] < h.clocks[b]
	}
	return a < b
}

func (h *streamHeap) push(i int32) {
	h.idx = append(h.idx, i)
	for c := len(h.idx) - 1; c > 0; {
		p := (c - 1) / 2
		if !h.less(h.idx[c], h.idx[p]) {
			break
		}
		h.idx[c], h.idx[p] = h.idx[p], h.idx[c]
		c = p
	}
}

// fix restores the heap after the root's clock grew.
func (h *streamHeap) fix() {
	n := len(h.idx)
	c := 0
	for {
		l, r := 2*c+1, 2*c+2
		min := c
		if l < n && h.less(h.idx[l], h.idx[min]) {
			min = l
		}
		if r < n && h.less(h.idx[r], h.idx[min]) {
			min = r
		}
		if min == c {
			return
		}
		h.idx[c], h.idx[min] = h.idx[min], h.idx[c]
		c = min
	}
}

// pop removes the root.
func (h *streamHeap) pop() {
	n := len(h.idx) - 1
	h.idx[0] = h.idx[n]
	h.idx = h.idx[:n]
	h.fix()
}

// streamState is one stream's interleaver cursor.
type streamState struct {
	pos  int
	pass int
}

// runScratch holds RunConcurrent's per-call buffers — stream cursors,
// local clocks and the heap's index slab — pooled on the Instance so a
// reset-and-measure cycle reruns concurrent streams without
// allocating.
type runScratch struct {
	st     []streamState
	clocks []float64
	idx    []int32
}

// grab returns the scratch sized for ns streams, growing the slabs
// only when a wider run arrives.
func (rc *runScratch) grab(ns int) ([]streamState, []float64, []int32) {
	if cap(rc.st) < ns {
		rc.st = make([]streamState, ns)
		rc.clocks = make([]float64, ns)
		rc.idx = make([]int32, 0, ns)
	}
	st := rc.st[:ns]
	clear(st)
	clocks := rc.clocks[:ns]
	clear(clocks)
	return st, clocks, rc.idx[:0]
}

// RunConcurrent interleaves the streams in virtual-time order: at each
// step the stream with the smallest local clock issues its next
// access (ties break by core id). Each stream performs `passes`
// traversals; the first pass of each stream is warm-up and excluded
// from its statistics, mirroring the array-initialization warming of
// the mcalibrator code in Fig. 1 of the paper. Concurrent streams
// hitting a shared cache thrash each other exactly as the Fig. 5
// benchmark expects.
//
// The interleaver keeps the live streams in a (clock, index) min-heap
// — identical selection order to the historical linear scan — and,
// once a single stream remains, finishes it through the batched
// AccessRun path.
func RunConcurrent(in *Instance, streams []Stream, passes int) []StreamStats {
	stats := make([]StreamStats, len(streams))
	RunConcurrentInto(in, streams, passes, stats)
	return stats
}

// RunConcurrentInto is RunConcurrent writing into a caller-owned stats
// buffer (len(stats) must equal len(streams)); the interleaver's own
// buffers are pooled on the instance, so a warm caller pays zero
// allocations per run. The statistics are bit-identical to
// RunConcurrent's.
func RunConcurrentInto(in *Instance, streams []Stream, passes int, stats []StreamStats) {
	if len(stats) != len(streams) {
		panic(fmt.Sprintf("memsys: stats buffer for %d streams has length %d", len(streams), len(stats)))
	}
	clear(stats)
	if passes < 2 {
		passes = 2
	}
	// The heap's index slab never outgrows its capacity (at most one
	// push per stream), so handing the pooled slab to the heap is safe:
	// rc.idx keeps sharing the backing array for the next run.
	st, clocks, idx := in.rc.grab(len(streams))
	h := &streamHeap{idx: idx, clocks: clocks}
	for i := range streams {
		if len(streams[i].Addrs) > 0 {
			h.push(int32(i))
		}
	}
	for len(h.idx) > 1 {
		sel := h.idx[0]
		s := &st[sel]
		str := &streams[sel]
		cost := in.Access(str.Core, str.Space, str.Addrs[s.pos])
		h.clocks[sel] += cost
		if s.pass > 0 {
			stats[sel].Accesses++
			stats[sel].Cycles += cost
		}
		s.pos++
		if s.pos == len(str.Addrs) {
			s.pos = 0
			s.pass++
			if s.pass == passes {
				h.pop()
				continue
			}
		}
		h.fix()
	}
	// Tail: the last live stream runs to completion uncontended — no
	// interleaving decisions remain, so batch it per pass segment.
	if len(h.idx) == 1 {
		sel := h.idx[0]
		s := &st[sel]
		str := &streams[sel]
		for s.pass < passes {
			seg := str.Addrs[s.pos:]
			if s.pass > 0 {
				in.AccessRunAccum(str.Core, str.Space, seg, &h.clocks[sel], &stats[sel].Cycles)
				stats[sel].Accesses += int64(len(seg))
			} else {
				in.AccessRunAccum(str.Core, str.Space, seg, &h.clocks[sel], nil)
			}
			s.pos = 0
			s.pass++
		}
	}
}
