package memsys

import (
	"math"
	"slices"
	"sync"
)

// A strided measurement is one warm-up traversal of an array followed
// by measured traversals (Fig. 1 of the paper). On a single core the
// measured passes almost always start from a fixed point: the state a
// pass leaves behind — cache contents in LRU order, TLB, prefetcher —
// is the state it started from, so every later pass repeats the same
// accesses at the same costs and ends in the same state again.
// AccessStridePasses proves the fixed point exactly instead of
// assuming it, and then adds the remaining passes' cost arithmetically.
// RunConcurrentInto runs each concurrent stream that shares no cache
// and no core through the same loop, over its address list.

// exactLimit bounds the integers float64 represents exactly: every sum
// of integers whose partial sums stay below it is exact, so it does
// not depend on the order of the additions.
const exactLimit = 1 << 53

// exactInt reports whether x is an integer that float64 sums handle
// exactly.
func exactInt(x float64) bool {
	return x == math.Trunc(x) && math.Abs(x) < exactLimit
}

// integralCosts reports whether every access on the machine costs an
// exact, non-negative integer number of cycles: each cost component —
// the level latencies, the memory latency and, when a TLB is modelled,
// the miss penalty — is a non-negative integer, and so is their sum,
// the largest cost one access can incur. Only then is a pass's cost
// independent of how its additions are grouped.
func (in *Instance) integralCosts() bool {
	ok, sum := true, 0.0
	part := func(p float64) {
		ok = ok && p >= 0 && exactInt(p)
		sum += p
	}
	part(in.memLat)
	if in.m.TLBEntries > 0 {
		part(in.tlbMiss)
	}
	for i := range in.m.Caches {
		part(in.m.Caches[i].LatencyCycles)
	}
	return ok && exactInt(sum)
}

// passSnapshot is the state one core's pass can change: the
// contents of every cache on the core's plan, its TLB and its
// prefetcher. The page table is not part of it — Alloc maps every page
// eagerly and translation is pure — and neither are other cores'
// caches, which the pass never touches.
type passSnapshot struct {
	// caches holds encodeCache of each cache on the plan, in plan
	// order.
	caches []uint32
	vpages []int64
	pref   prefetcher
}

// snapshots is the process-wide free list of snapshot slabs. A slab is
// live only for one AccessStridePasses call, so sharing them keeps
// every pooled instance of a sweep from growing its own copy of the
// largest cache state it measures. The list grows to the largest
// number of strided measurements that ever ran at once. It is not a
// sync.Pool: a garbage collection empties a Pool, so warm measurements
// would grow their slab again, and under the race detector Put drops
// slabs at random, which would break the 0 allocs/op of a warm
// measurement that tests pin.
var snapshots struct {
	mu   sync.Mutex
	free []*passSnapshot
}

// getSnapshot takes a slab from the free list, or a new one.
func getSnapshot() *passSnapshot {
	snapshots.mu.Lock()
	defer snapshots.mu.Unlock()
	n := len(snapshots.free)
	if n == 0 {
		return new(passSnapshot)
	}
	s := snapshots.free[n-1]
	snapshots.free = snapshots.free[:n-1]
	return s
}

// putSnapshot returns a slab to the free list.
func putSnapshot(s *passSnapshot) {
	snapshots.mu.Lock()
	snapshots.free = append(snapshots.free, s)
	snapshots.mu.Unlock()
}

// encodedLen returns the length of encodeCache's encoding of c.
func encodedLen(c *cache) int {
	n := 2
	for _, l := range c.lens {
		if l != 0 {
			n += 2 + int(l)
		}
	}
	return n
}

// encodeCache appends an exact encoding of c's contents to dst: 0 if
// the backing array was never allocated; otherwise 1, then (length,
// set index, tags in MRU order) for every non-empty set, then 0. A
// set's length is never 0, so the encoding parses unambiguously and
// two states encode alike only when they are equal.
func encodeCache(dst []uint32, c *cache) []uint32 {
	if c.lines == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	for idx, n := range c.lens {
		if n != 0 {
			base := int64(idx) * c.assoc
			dst = append(dst, uint32(n), uint32(idx))
			dst = append(dst, c.lines[base:base+int64(n)]...)
		}
	}
	return append(dst, 0)
}

// matchCache reports whether enc starts with encodeCache's encoding of
// c, and returns the rest of enc. It compares in place, without
// encoding c again.
func matchCache(enc []uint32, c *cache) ([]uint32, bool) {
	if c.lines == nil {
		if len(enc) == 0 || enc[0] != 0 {
			return nil, false
		}
		return enc[1:], true
	}
	if len(enc) == 0 || enc[0] != 1 {
		return nil, false
	}
	enc = enc[1:]
	for idx, n := range c.lens {
		if n == 0 {
			continue
		}
		base := int64(idx) * c.assoc
		if len(enc) < 2+int(n) || enc[0] != uint32(n) || enc[1] != uint32(idx) ||
			!slices.Equal(enc[2:2+n], c.lines[base:base+int64(n)]) {
			return nil, false
		}
		enc = enc[2+n:]
	}
	if len(enc) == 0 || enc[0] != 0 {
		return nil, false
	}
	return enc[1:], true
}

// take records the core's state before a pass, growing the slab at
// most once, to the exact size of the encoding.
func (s *passSnapshot) take(in *Instance, core int) {
	plan := in.planFor(core)
	n := 0
	for i := range plan {
		n += encodedLen(plan[i].c)
	}
	s.caches = slices.Grow(s.caches[:0], n)
	for i := range plan {
		s.caches = encodeCache(s.caches, plan[i].c)
	}
	if t := in.tlbs[core]; t != nil {
		s.vpages = append(s.vpages[:0], t.vpages...)
	}
	s.pref = *in.pref[core]
}

// unchanged reports whether the core's state equals the one take
// recorded.
func (s *passSnapshot) unchanged(in *Instance, core int) bool {
	if s.pref != *in.pref[core] {
		return false
	}
	if t := in.tlbs[core]; t != nil && !slices.Equal(s.vpages, t.vpages) {
		return false
	}
	enc := s.caches
	for _, pl := range in.planFor(core) {
		var ok bool
		if enc, ok = matchCache(enc, pl.c); !ok {
			return false
		}
	}
	return len(enc) == 0
}

// AccessStridePasses runs a whole strided measurement on one core: a
// warm-up traversal of base, base+stride, ... below base+bytes, whose
// costs are added to *total, then `passes` measured traversals, whose
// costs are added to both *total and *measured. It returns how many of
// the measured accesses it did not simulate one by one, and how many
// warm-up accesses it filled (see fill) instead of simulating them.
//
// The result is bit-identical to a warm-up AccessStrideAccum followed
// by `passes` measured ones, end state included. The warm-up is filled
// when every cache on the core's plan is empty, the stride is at least
// every plan level's line and the prefetcher cannot follow it; it is
// simulated otherwise. Before each measured pass but the last it
// snapshots the core's state. When the pass ends in exactly that
// state, every remaining pass repeats it access for access, so their
// cost is the pass's sum d times their count k. AccessStridePasses
// adds d·k in one step when that equals the k·n single additions bit
// for bit: every access costs an integer number of cycles
// (integralCosts) and the accumulators hold integers that stay below
// 2^53 throughout, so no addition rounds. Otherwise — the state moved,
// or a cost or accumulator is not such an integer — it simulates the
// pass and tries again before the next one.
func (in *Instance) AccessStridePasses(core int, sp *Space, base, bytes, stride int64, passes int, total, measured *float64) (replayed, filled int64) {
	return in.replayPasses(core, walk{sp: sp, base: base, bytes: bytes, stride: stride}, passes, total, measured)
}

// walk is the traversal a replayed measurement repeats: the address
// list addrs when it is non-nil, else the strided run base,
// base+stride, ... below base+bytes. It is a plain value, not a
// closure, so a pooled measurement that replays allocates nothing.
type walk struct {
	sp                  *Space
	addrs               []int64
	base, bytes, stride int64
}

// accesses returns the number of accesses of one traversal.
func (w *walk) accesses() int64 {
	if w.addrs != nil {
		return int64(len(w.addrs))
	}
	return (w.bytes + w.stride - 1) / w.stride
}

// traverse runs one traversal of w on the core, adding each access's
// cost to *total and, when measured is non-nil, to *measured.
func (in *Instance) traverse(core int, w *walk, total, measured *float64) {
	if w.addrs != nil {
		in.AccessRunAccum(core, w.sp, w.addrs, total, measured)
	} else {
		in.AccessStrideAccum(core, w.sp, w.base, w.bytes, w.stride, total, measured)
	}
}

// missCost is what accessAt charges an access that misses every level
// of the plan, adding the same terms in the same order: the TLB miss
// penalty when the TLB missed, the level latencies, the memory latency.
func (in *Instance) missCost(plan []planLevel, tlbMiss bool) float64 {
	cost := 0.0
	if tlbMiss {
		cost += in.tlbMiss
	}
	for i := range plan {
		cost += plan[i].latency
	}
	return cost + in.memLat
}

// fill runs one traversal of w on the core, adding each access's cost
// to *total, without simulating its cache accesses, when it can prove
// that every access misses at every level; otherwise it changes nothing
// and returns false. The proof needs three facts, each checked:
//
//   - every cache on the core's plan holds no line;
//   - the addresses rise at one constant stride of at least every plan
//     level's line, and no line spans pages, so each access touches a
//     line no earlier access touched — distinct pages of a space map to
//     distinct frames;
//   - the core's prefetcher cannot fire: it is off, or the stride is
//     beyond it and the first access does not complete a stream it had
//     already begun.
//
// Each level then ends holding, in every set, the last min(k, assoc)
// of the k lines the walk mapped to it, MRU first, which one reverse
// sweep builds by appending at the LRU end of each set not yet full:
// no tag scan and no shift. The TLB and the prefetcher still see every
// access, forward, and each access adds what accessAt would charge it,
// one at a time in issue order, so non-integral costs stay exact. An
// address list leaves the core's translation cache as AccessRunAccum
// would. fill allocates nothing once the plan's caches have been used.
func (in *Instance) fill(core int, w *walk, total *float64) bool {
	n, base, stride := w.accesses(), w.base, w.stride
	if w.addrs != nil {
		if n < 2 {
			return false
		}
		base, stride = w.addrs[0], w.addrs[1]-w.addrs[0]
		for i := 2; i < len(w.addrs); i++ {
			if w.addrs[i]-w.addrs[i-1] != stride {
				return false
			}
		}
	}
	if n <= 0 {
		return false
	}
	plan := in.planFor(core)
	for i := range plan {
		c := plan[i].c
		if c.occupied || stride < int64(1)<<c.lineBits || c.lineBits > in.pageShift {
			return false
		}
	}
	p := in.pref[core]
	if p.maxStride > 0 {
		probe := *p
		if _, fires := probe.observe(base, in.pageShift); fires || stride <= p.maxStride {
			return false
		}
	}

	shift, mask := in.pageShift, in.pageMask
	t := in.tlbs[core]
	cost, tlbCost := in.missCost(plan, false), in.missCost(plan, true)
	a := *total
	vaddr := base
	for i := int64(0); i < n; i, vaddr = i+1, vaddr+stride {
		if t != nil && !t.access(vaddr>>shift) {
			a += tlbCost
		} else {
			a += cost
		}
		p.observe(vaddr, shift)
	}
	*total = a

	for i := range plan {
		c := plan[i].c
		if c.lines == nil {
			c.grow()
		}
		c.occupied = true
	}
	curVpage, pbase := int64(-1), int64(0)
	for i := n - 1; i >= 0; i-- {
		vaddr := base + i*stride
		if vpage := vaddr >> shift; vpage != curVpage {
			pbase = w.sp.translate(vaddr) &^ mask
			curVpage = vpage
		}
		paddr := pbase + vaddr&mask
		for j := range plan {
			c := plan[j].c
			c.appendLRU(vaddr>>c.lineBits, paddr>>c.lineBits)
		}
	}
	if w.addrs != nil {
		in.translateFor(core, w.sp, w.addrs[n-1])
	}
	return true
}

// replayPasses is the snapshot-and-compare loop of AccessStridePasses
// over either kind of walk: a warm-up traversal, filled when fill can
// prove it misses everywhere, then `passes` measured ones, replaying
// the rest arithmetically once a pass ends in the state it started
// from.
func (in *Instance) replayPasses(core int, w walk, passes int, total, measured *float64) (replayed, filled int64) {
	n := w.accesses()
	if in.fill(core, &w, total) {
		filled = n
	} else {
		in.traverse(core, &w, total, nil)
	}
	var s *passSnapshot
	if passes > 1 && n > 0 && in.exact {
		s = getSnapshot()
		defer putSnapshot(s)
	}
	for pass := 1; pass <= passes; pass++ {
		if s == nil || pass == passes {
			in.traverse(core, &w, total, measured)
			continue
		}
		s.take(in, core)
		t0, m0 := *total, *measured
		in.traverse(core, &w, total, measured)
		if !exactInt(t0) || !exactInt(m0) || !exactInt(*total) || !exactInt(*measured) || !s.unchanged(in, core) {
			continue
		}
		// The accumulators moved from integers to integers below 2^53
		// by non-negative integer steps, so every partial sum was
		// exact and d is the pass's exact cost.
		k := passes - pass
		d := *measured - m0
		dk := d * float64(k)
		if !exactInt(dk) || !exactInt(*total+dk) || !exactInt(*measured+dk) {
			continue
		}
		*total += dk
		*measured += dk
		return int64(k) * n, filled
	}
	return 0, filled
}
