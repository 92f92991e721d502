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
// slices, set and page indexing use masks when the counts are powers
// of two, and every core keeps a one-entry translation cache for the
// page it last touched. AccessRun batches whole traversals through
// that path. The BENCH_*.json perf trajectory (see `make bench`)
// tracks the cost of these operations across PRs.
//
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
	if n < c.assoc {
		n++
		c.lens[idx] = int32(n)
		set = c.lines[base : base+n : base+n]
	}
	copy(set[1:], set)
	set[0] = want
	return false
}

// contains reports whether the line is cached, without touching LRU
// state (used by tests).
func (c *cache) contains(vLine, pLine int64) bool {
	if c.lines == nil {
		return false
	}
	idx := c.setIndex(vLine, pLine)
	base := idx * c.assoc
	for _, tag := range c.lines[base : base+int64(c.lens[idx])] {
		if tag == uint32(pLine) {
			return true
		}
	}
	return false
}

// reset drops all cached lines but retains the backing capacity:
// truncating every set to length zero is a flat memclr, and the next
// measurement's accesses re-fill the warm array without a single
// allocation.
func (c *cache) reset() {
	clear(c.lens)
}
