package memsys

import (
	"fmt"
	"slices"

	"servet/internal/stats"
)

// osAllocator hands out physical page frames. Without coloring it
// models Linux: any free frame, effectively random with respect to
// cache page sets. With coloring it models OSs that keep the physical
// page color (page set group) congruent with the virtual page's, which
// makes physically indexed caches behave like virtually indexed ones —
// the distinction at the heart of the paper's Fig. 4.
//
// Placement is stateless: the candidate frames for a (space, vpage)
// slot are a pure hash chain of (placement seed, space, vpage,
// attempt), never of how many pages were handed out before. Two
// allocators built from the same seed therefore map the same slots to
// the same frames regardless of the order unrelated spaces allocate
// in, which is what lets every measurement of a sharded sweep build
// an identical-by-construction memory system.
type osAllocator struct {
	seed      int64
	physPages int64
	// used is a frame bitset, allocated on the first allocation: the
	// placement chains probe it once per attempt, and a flat bit test
	// beats a hash-map lookup on that path.
	used     []uint64
	inUse    int64
	coloring bool
	colors   int64
}

func newOSAllocator(seed int64, physPages int64, coloring bool, colors int64) *osAllocator {
	if colors < 1 {
		colors = 1
	}
	return &osAllocator{
		seed:      seed,
		physPages: physPages,
		coloring:  coloring,
		colors:    colors,
	}
}

// reset returns every frame to the pool and reseeds the placement
// chains: afterwards the allocator behaves exactly like
// newOSAllocator(seed, ...), except that the lazily-built frame bitset
// keeps its capacity (a flat memclr instead of a reallocation).
func (o *osAllocator) reset(seed int64) {
	o.seed = seed
	clear(o.used)
	o.inUse = 0
}

func (o *osAllocator) isUsed(p int64) bool {
	return o.used[p>>6]&(1<<uint(p&63)) != 0
}

func (o *osAllocator) take(p int64) {
	o.used[p>>6] |= 1 << uint(p&63)
	o.inUse++
}

// allocPage returns a free physical page for the given (space, vpage)
// slot, honoring the coloring policy: the first free frame of the
// slot's stateless candidate chain wins. It panics when physical
// memory is exhausted: the simulated machines are provisioned far
// beyond what the probes allocate, so exhaustion is a bug in the
// caller.
func (o *osAllocator) allocPage(space, vpage int64) int64 {
	if o.inUse >= o.physPages {
		panic("memsys: out of physical pages")
	}
	if o.used == nil {
		o.used = make([]uint64, (o.physPages+63)/64)
	}
	if o.coloring {
		color := vpage % o.colors
		perColor := o.physPages / o.colors
		if perColor == 0 {
			panic(fmt.Sprintf("memsys: %d physical pages cannot host %d colors", o.physPages, o.colors))
		}
		for attempt := int64(0); attempt < 1_000_000; attempt++ {
			p := color + o.colors*stats.MixBound(perColor, o.seed, space, vpage, attempt)
			if !o.isUsed(p) {
				o.take(p)
				return p
			}
		}
		panic("memsys: colored page pool exhausted")
	}
	// The chain cannot cycle (every attempt hashes fresh), so with at
	// least one free frame — guaranteed by the capacity check above —
	// it terminates.
	for attempt := int64(0); ; attempt++ {
		p := stats.MixBound(o.physPages, o.seed, space, vpage, attempt)
		if !o.isUsed(p) {
			o.take(p)
			return p
		}
	}
}

// freePage returns a frame to the pool.
func (o *osAllocator) freePage(p int64) {
	o.used[p>>6] &^= 1 << uint(p&63)
	o.inUse--
}

// pageRegion is the page table of one allocation: a dense frame slice
// indexed by (vpage - first). Allocations never overlap and bases grow
// monotonically, so a space's regions stay sorted by first page. Frames
// are 32-bit: CheckPhysBound keeps a node's frame count within 2^32.
type pageRegion struct {
	first  int64    // first virtual page of the region
	ppages []uint32 // physical frame of page first+i
}

// Space is a process address space: a private virtual address range
// with its own page table. Each probe process (thread) of the suite
// runs in its own space. The space's id feeds the placement hash, so
// the k-th space of an instance always draws the same frame candidates
// for a given virtual page.
//
// The page table is a sorted list of dense per-Array regions rather
// than a vpage->ppage map: translation is an indexed load after a
// (usually cached) region lookup, and a strided traversal touches the
// region-lookup slow path only when it crosses into another
// allocation. Sparse spaces — many small allocations — fall back to a
// binary search over the region list.
type Space struct {
	in      *Instance
	id      int64
	regions []pageRegion
	last    int   // region index hit by the most recent lookup
	gen     int64 // bumped on Free; invalidates per-core translation caches
	nextV   int64
	// arrays pools the *Array headers handed out by Alloc; arrSeq is
	// the next pooled slot. recycle rewinds arrSeq so a reset instance
	// reuses the headers instead of allocating fresh ones.
	arrays []*Array
	arrSeq int
}

// recycle returns the space to its just-created state while keeping
// every backing capacity — the region list, the per-region frame
// slices, and the Array headers — so the next measurement cycle maps
// its pages without allocating. The caller (Instance.ResetAt via
// NewSpace) reassigns id and nextV.
func (sp *Space) recycle() {
	sp.regions = sp.regions[:0]
	sp.last = 0
	sp.gen = 0
	sp.arrSeq = 0
}

// Array is a page-aligned allocation inside a Space.
type Array struct {
	sp *Space
	// Base is the first virtual address of the allocation.
	Base int64
	// Bytes is the requested length.
	Bytes int64
}

// Alloc reserves bytes of virtual memory, maps every page to a
// physical frame and returns the array. The mapping is the moment the
// OS placement policy acts, exactly as in the real benchmarks where
// initializing the array faults the pages in.
func (sp *Space) Alloc(bytes int64) *Array {
	if bytes <= 0 {
		panic("memsys: non-positive allocation")
	}
	in := sp.in
	base := sp.nextV
	first := base >> in.pageShift
	npages := (bytes + in.pageMask) >> in.pageShift
	// Reuse a pooled region slot (and its frame slice) when one sits
	// between the list's length and capacity — recycle and Free park
	// them there — so a steady-state allocation is pure page mapping.
	// The frame slice grows with append's amortized policy, so an
	// ascending size grid (mcalibrator's) reallocates it only every few
	// sizes instead of at every one.
	var r *pageRegion
	if n := len(sp.regions); n < cap(sp.regions) {
		sp.regions = sp.regions[:n+1]
		r = &sp.regions[n]
	} else {
		sp.regions = append(sp.regions, pageRegion{})
		r = &sp.regions[len(sp.regions)-1]
	}
	r.first = first
	r.ppages = slices.Grow(r.ppages[:0], int(npages))[:npages]
	for i := range r.ppages {
		r.ppages[i] = uint32(in.os.allocPage(sp.id, first+int64(i)))
	}
	// Leave a guard page between allocations.
	sp.nextV = base + (npages+1)*in.m.PageBytes
	var a *Array
	if sp.arrSeq < len(sp.arrays) {
		a = sp.arrays[sp.arrSeq]
	} else {
		a = &Array{}
		sp.arrays = append(sp.arrays, a)
	}
	sp.arrSeq++
	a.sp = sp
	a.Base = base
	a.Bytes = bytes
	return a
}

// Free unmaps the array and returns its frames to the OS. Unmapping
// performs the TLB shootdown real kernels do: the freed pages are
// invalidated in every core's TLB and the per-core translation caches
// of this space are dropped, so no stale translation can serve a
// later access.
func (sp *Space) Free(a *Array) {
	if a.sp != sp {
		panic("memsys: freeing array from another space")
	}
	in := sp.in
	first := a.Base >> in.pageShift
	npages := (a.Bytes + in.pageMask) >> in.pageShift
	ri := sp.region(first)
	if ri < 0 || sp.regions[ri].first != first || int64(len(sp.regions[ri].ppages)) != npages {
		panic("memsys: double free")
	}
	freed := sp.regions[ri].ppages
	for _, p := range freed {
		in.os.freePage(int64(p))
	}
	// Shift the tail left and park the freed frame slice in the vacated
	// last slot: a naive append-splice would leave that slot aliasing a
	// live region's frames, which slot reuse in Alloc would then
	// corrupt.
	n := len(sp.regions) - 1
	copy(sp.regions[ri:], sp.regions[ri+1:])
	sp.regions[n] = pageRegion{ppages: freed[:0]}
	sp.regions = sp.regions[:n]
	sp.last = 0
	sp.gen++ // drop every per-core cached translation of this space
	for _, t := range in.tlbs {
		if t == nil {
			continue
		}
		for i := int64(0); i < npages; i++ {
			t.invalidate(first + i)
		}
	}
}

// region returns the index of the region containing vpage, or -1. The
// last hit is cached: strided traversals resolve against it without
// searching.
func (sp *Space) region(vpage int64) int {
	if sp.last < len(sp.regions) {
		r := &sp.regions[sp.last]
		if d := vpage - r.first; d >= 0 && d < int64(len(r.ppages)) {
			return sp.last
		}
	}
	lo, hi := 0, len(sp.regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		r := &sp.regions[mid]
		switch d := vpage - r.first; {
		case d < 0:
			hi = mid
		case d < int64(len(r.ppages)):
			sp.last = mid
			return mid
		default:
			lo = mid + 1
		}
	}
	return -1
}

// translate maps a virtual address to a physical one. Unmapped accesses
// panic: the probes only touch what they allocate.
func (sp *Space) translate(vaddr int64) int64 {
	in := sp.in
	vpage := vaddr >> in.pageShift
	ri := sp.region(vpage)
	if ri < 0 {
		panic(fmt.Sprintf("memsys: access to unmapped address %#x", vaddr))
	}
	r := &sp.regions[ri]
	return int64(r.ppages[vpage-r.first])<<in.pageShift + (vaddr & in.pageMask)
}

// mapped reports whether the virtual address is mapped (the prefetcher
// must not fault).
func (sp *Space) mapped(vaddr int64) bool {
	return sp.region(vaddr>>sp.in.pageShift) >= 0
}
