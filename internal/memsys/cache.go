// Package memsys is a functional simulator of a node's memory system:
// set-associative LRU caches with virtual or physical indexing,
// per-process address spaces with an OS page allocator (random,
// Linux-like placement or page coloring), a stride prefetcher, and a
// max-min fair model of concurrent memory bandwidth.
//
// It reproduces the mechanisms the Servet benchmarks exploit: capacity
// misses appearing exactly beyond the cache size for virtually-indexed
// caches, binomially distributed page-set overflow for physically
// indexed caches under random page placement, cache thrashing between
// cores that share a cache, and bus/cell bandwidth collisions between
// cores that share a memory path.
//
// The simulation hot path — one Access — is engineered to be
// allocation-free and division-free: cache sets live in one flat
// backing array per instance, page tables are dense per-region frame
// slices whose last-hit region is remembered, and set and page
// indexing use masks when the counts are powers of two. Translation is
// pure, so no translation is cached per core. AccessStrideAccum
// batches a whole strided traversal through that path, translating
// once per page. The BENCH_*.json perf trajectory (see `make bench`)
// tracks the cost of these operations across PRs.
//
// A whole single-core strided measurement — a warm-up traversal and
// the measured ones — runs as one AccessStridePasses call, which
// simulates only what it cannot prove. The warm-up runs on a
// just-reset memory system, so it is all compulsory misses. When every
// cache on the core's plan is empty, the walk rises at one constant
// stride of at least every level's line and the core's prefetcher
// cannot follow it, each access provably misses at every level: the
// warm-up is then filled — each access's miss cost is added in issue
// order, and each set ends holding the last lines mapped to it, MRU
// first. The fill counts those lines per set rather than installing
// them: a level whose set count is a power of two sends the same
// offsets of every complete page to the same sets of the page's color
// block (its frame, or virtual page, modulo the level's colors), so the
// fill counts complete pages per color, reading one frame per page,
// and expands the counts once into per-set counts; partial pages and
// other levels are counted access by access. The TLB is probed only
// when an access moves to a new page, and the prefetcher, which cannot
// follow the stride, is set to its end state in closed form. A warm-up
// that fails any of these checks is simulated.
//
// A filled walk's tags are installed only if something reads them. The
// fill records its walk as a run of the instance's pending end state,
// and every call that reads or changes cache contents — Access,
// AccessStrideAccum, RunConcurrentInto, Space.Free, and
// AccessStridePasses before the first pass it simulates — first
// settles it. One installer builds every filled end state: a run of
// strided walks, each with the levels it fills, in one issue order, is
// installed by one reverse sweep that appends each access's line at
// the LRU end of its walk's levels, translating once per page per walk.
// A walk that one allocation does not map, crossing a guard page into
// the next, is not filled. ResetAt and ResetCaches drop it unbuilt, as
// every probe does after its measurement. The TLBs, prefetchers and
// occupancy flags are set eagerly, so every later call observes exactly
// the state simulation would have left. The installer counts its
// (access, level) visits on the instance, and the next measurement
// reports them, whichever call settled.
//
// After a fill, the first measured pass is derived rather than
// simulated: the fill records, at each level, the sets the walk
// touches, how many lines each receives, up to one more than it holds,
// and which of them received more lines than they hold. The proof
// visits those sets, never the accesses. A line goes on to the
// next level only past a set that overflows. When each set of the next
// level takes all of its lines from one set of this one (the levels
// nest), or this level passes on all of its lines or none, every set
// at every level is reached by all of its lines or by none. LRU
// over the cyclic walk then makes a reached set hit on every access if
// its lines fit and miss on every access if they do not, and the pass
// leaves caches, TLB and prefetcher exactly as the fill did. With
// integral access costs, as on every built-in model, the pass then
// costs one sum over the touched sets: the lines of each reached set
// that fits hit at its level, every other line misses everywhere, and
// each page adds the TLB term once when the walk thrashes the TLB.
// With fractional costs, or accumulators that are not exact integers,
// the pass is not derived. The proof runs before anything changes.
// Every later pass repeats the derived one access for access, so its
// cost is added arithmetically, exactly. A walk that is not filled, or
// whose pass is not derived, is simulated pass by pass: no state is
// snapshotted or compared.
//
// RunConcurrentInto runs the Fig. 5 concurrent streams. A stream that
// shares no cache and no core with another stream runs alone, since no
// other stream can change the cost of its accesses: through
// AccessStridePasses when its addresses rise at one constant stride,
// as every production stream's do, and through the interleaver on its
// own otherwise. Each such stream is turned into a strided walk once,
// and the fills, the installer and the stack-distance path read walks. Streams that share a cache or a core — coupled
// streams — interleave in virtual-time order, one loop picking the
// stream of smallest (clock, index) by a scan in index order. Their cold warm-up is filled too,
// as far as the first access of any measured pass, when every coupled
// stream has its own core and space and passes the single-core checks:
// every such access misses everywhere whatever the interleaving, so
// the issue order follows from the miss costs alone, and the installer
// builds the merged run at once, private levels from their own stream
// and shared ones from the merged order, since the interleaver reads
// them. The rest is
// simulated access by access, but only below each stream's private
// prefix: the leading private levels at which every set its walk
// touches receives more lines than it holds. They miss on every access
// whatever the interleaving and end each set with its last lines, MRU
// first, so the stream's whole walk there is the state the run leaves:
// the fill counts it to find the prefix and leaves its install pending.
// Each later access starts its lookup after the prefix, in practice at
// the first shared level.
//
// When exactly two streams are coupled and their prefixes cover every
// level but the last, which they share — a nehalem2s same-socket pair
// over the L3, a dunnington pair sharing only the L3 — no access after
// the fill is looked up at all. Every access of both reaches that one
// level; their lines are distinct, and each stream visits its lines of
// a set in one cyclic order, so LRU decides every access from its
// stack distance in O(1): a line hits iff it was accessed before and
// either fewer than assoc accesses to its set came since, or the two
// walks together map no more than assoc lines to the set. A counter
// per set and a stamp per walk position, the set's count at the line's
// last access, give that distance. The TLB is probed once per page,
// each access's cost is added in issue order, and the level's end
// state, the last passes of both walks in the order they were issued,
// is left pending as a run of both walks, its order one byte per
// access of those passes.
// Dunnington's L2-sharing pairs and smt-quad's L1-sharing pairs still
// interleave.
//
// Every cost an access can incur is an entry of one per-instance
// lookup-cost table: the TLB term plus the latencies of the first k
// levels, summed left to right, or all of them plus the memory
// latency. A simulated access, a filled miss and a derived hit each
// read the entry of the level where their lookup ends, so every path
// charges an access the same bits.

// Cache tags and page frames are stored as 32-bit values: a tag is the
// physical line number and a frame the physical page number, so a node
// may have at most 2^32 of each (topology.Machine.CheckPhysBound, which
// Validate applies and NewInstanceAt enforces). At half the width of
// int64 they halve the tag and page-table memory a cold measurement
// grows — an 8 MB last-level cache model holds 512 KiB of tags, not
// 1 MiB.
package memsys

import (
	"fmt"
	"math/bits"

	"servet/internal/topology"
)

// cache is one instance of a set-associative LRU cache level.
//
// All sets share one flat backing array of numSets*assoc tags plus a
// per-set fill count, allocated on first touch: the access path never
// appends or copies-to-grow, and reset keeps the capacity so the next
// measurement re-touches warm memory instead of re-growing every set.
type cache struct {
	spec *topology.CacheLevel
	// lines holds the physical line tags, set-major, MRU first within
	// each set; nil until the first access touches the instance. A tag
	// is the physical line number, which CheckPhysBound keeps below
	// 2^32.
	lines []uint32
	// lens is the number of valid tags per set.
	lens     []int32
	numSets  int64
	setMask  int64 // numSets-1 when numSets is a power of two, else 0
	assoc    int64
	lineBits uint
	virtual  bool // set selected by the virtual line address
	// occupied records that the cache holds a line: access's miss
	// branch sets it and reset clears it. A hit implies it is already
	// set, so the hit path pays nothing for it.
	occupied bool
}

// newCache validates the level's geometry and builds an empty cache.
// It panics on a spec the simulator cannot model faithfully: a
// non-power-of-two line size (the line-offset split is a shift, so
// lineBits would silently index the wrong line), or a size that does
// not divide into at least one full set (numSets of zero would make
// every set index collapse or divide by zero).
func newCache(spec *topology.CacheLevel) *cache {
	if spec.LineBytes <= 0 || spec.LineBytes&(spec.LineBytes-1) != 0 {
		panic(fmt.Sprintf("memsys: L%d line size %d bytes is not a positive power of two", spec.Level, spec.LineBytes))
	}
	if spec.Assoc < 1 {
		panic(fmt.Sprintf("memsys: L%d associativity %d is not positive", spec.Level, spec.Assoc))
	}
	numSets := spec.SizeBytes / (spec.LineBytes * int64(spec.Assoc))
	if numSets < 1 || numSets*spec.LineBytes*int64(spec.Assoc) != spec.SizeBytes {
		panic(fmt.Sprintf("memsys: L%d size %d bytes does not divide into %d-way sets of %d-byte lines",
			spec.Level, spec.SizeBytes, spec.Assoc, spec.LineBytes))
	}
	lineBits := uint(0)
	for l := spec.LineBytes; l > 1; l >>= 1 {
		lineBits++
	}
	c := &cache{
		spec:     spec,
		numSets:  numSets,
		assoc:    int64(spec.Assoc),
		lineBits: lineBits,
		virtual:  spec.Indexing == topology.VirtuallyIndexed,
	}
	if numSets&(numSets-1) == 0 {
		c.setMask = numSets - 1
	}
	return c
}

// setIndex selects the set for an access, from the virtual or physical
// line address according to the level's indexing mode.
func (c *cache) setIndex(vLine, pLine int64) int64 {
	line := pLine
	if c.virtual {
		line = vLine
	}
	if c.setMask != 0 {
		return line & c.setMask
	}
	return line % c.numSets
}

// grow allocates the flat backing storage on the instance's first
// access; untouched cache instances (other cores' private caches) cost
// nothing beyond the struct.
func (c *cache) grow() {
	c.lines = make([]uint32, c.numSets*c.assoc)
	c.lens = make([]int32, c.numSets)
}

// access looks a line up, returns whether it hit, and updates
// LRU/contents: hits move to MRU, misses insert at MRU evicting the LRU
// way if the set is full. It never allocates once the backing array
// exists.
func (c *cache) access(vLine, pLine int64) bool {
	if c.lines == nil {
		c.grow()
	}
	idx := c.setIndex(vLine, pLine)
	base := idx * c.assoc
	n := int64(c.lens[idx])
	set := c.lines[base : base+n : base+n]
	want := uint32(pLine)
	for i, tag := range set {
		if tag == want {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = want
			return true
		}
	}
	// Miss: insert at MRU, growing the set within its reserved ways.
	c.occupied = true
	if n < c.assoc {
		n++
		c.lens[idx] = int32(n)
		set = c.lines[base : base+n : base+n]
	}
	copy(set[1:], set)
	set[0] = want
	return false
}

// appendLRU installs a line that set idx does not hold at its LRU end,
// below every line it holds, unless the set is full, and returns the
// number of lines the set held before: assoc when it was full and
// nothing was installed. It does not set occupied: the caller that
// fills lines owns that.
func (c *cache) appendLRU(idx, pLine int64) int64 {
	n := int64(c.lens[idx])
	if n == c.assoc {
		return n
	}
	c.lines[idx*c.assoc+n] = uint32(pLine)
	c.lens[idx]++
	return n
}

// pageLocal reports whether the cache's set index is a function of the
// page offset alone: a power-of-two set count whose index bits, above
// the line offset, stay below the page shift.
func (c *cache) pageLocal(pageShift uint) bool {
	return c.numSets&(c.numSets-1) == 0 && c.lineBits+uint(bits.TrailingZeros64(uint64(c.numSets))) <= pageShift
}

// reset drops all cached lines but retains the backing capacity:
// truncating every set to length zero is a flat memclr, and the next
// measurement's accesses re-fill the warm array without a single
// allocation.
func (c *cache) reset() {
	clear(c.lens)
	c.occupied = false
}
