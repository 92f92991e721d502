package memsys

import (
	"math"
	"slices"
	"sync"
)

// A strided measurement is one warm-up traversal of an array followed
// by measured traversals (Fig. 1 of the paper). AccessStridePasses does
// as little simulation as it can prove away, in three steps, each exact
// and each falling back to simulation when its proof fails:
//
//   - fill costs a warm-up over empty caches that provably misses
//     everywhere, probing the TLB once per page and setting the
//     prefetcher's end state in closed form, and countWalk records at
//     each level how many lines the walk maps to each set it touches, up
//     to one more than the set holds, counting the complete pages of an
//     aligned walk per color and expanding those counts once;
//   - derivedPass proves from those per-set counts alone, visiting sets
//     and not accesses, that the first measured pass after such a fill
//     leaves the state where it found it, and, when every cost and both
//     accumulators are exact integers, costs it as one sum over the
//     touched sets;
//   - the d·k rule adds the remaining passes arithmetically, since each
//     repeats the derived pass access for access.
//
// No step installs a tag: the fill's walk is a run of the instance's
// pending end state (settle.go), which install builds only when a later
// call reads the caches, and which a reset drops unbuilt.
//
// A walk fill or derivedPass declines is simulated pass by pass, after
// settling what is pending: no state is snapshotted or compared.
// RunConcurrentInto runs each concurrent stream that shares no cache
// and no core through the same loop, as the strided walk its address
// list rises by, or through the interleaver on its own when the list
// does not rise at one stride. The coupled streams, which share one,
// interleave in one loop that picks the stream of smallest (clock,
// index) by a scan in index order until the last stream finishes.
// fillCoupled fills their cold warm-up with the same proof, over the
// merged order in which the interleaver would issue it, and install
// builds that merged run at once, since the interleaver reads it.
// fillCoupled also proves, from countWalk's counts, that each stream
// misses throughout at its leading private levels, where its whole
// walk is then the state the run leaves and is left pending; the
// interleaver skips those levels, so coupled streams are simulated
// only from the first level after that prefix on, in practice the
// levels they share. When two streams are coupled and their prefixes
// cover every level but a shared last one, runStacked decides every
// access after the fill from its LRU stack distance at that level
// instead: a line hits iff it was accessed before and either fewer
// than assoc accesses to its set came since or both walks together map
// no more than assoc lines to the set; the level's end state is left
// pending too, as the run of both walks' last passes. Every access
// costs an entry of the instance's one lookup-cost table
// (Instance.costs), whichever of these paths finds it.

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

// freeList is a process-wide free list of scratch slabs. A slab is
// live only for one measurement, so sharing them keeps every pooled
// instance of a sweep from growing its own copy of the largest scratch
// it needs. A list grows to the largest number of measurements that
// ever ran at once. It is not a sync.Pool: a garbage collection empties
// a Pool, so warm measurements would grow their slab again, and under
// the race detector Put drops slabs at random, which would break the 0
// allocs/op of a warm measurement that tests pin.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get takes a slab from the list, or a new one.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	s := l.free[n-1]
	l.free = l.free[:n-1]
	return s
}

// put returns a slab to the list.
func (l *freeList[T]) put(s *T) {
	l.mu.Lock()
	l.free = append(l.free, s)
	l.mu.Unlock()
}

var (
	// setScratch holds fill's per-set counts for derivedPass, and
	// fillCoupled's counts of a coupled stream's walk at its private
	// levels.
	setScratch freeList[setCounts]
	// issueOrders holds fillCoupled's merged issue order, one stream
	// index per access.
	issueOrders freeList[[]uint8]
	// colorScratch holds countWalk's per-color page counts.
	colorScratch freeList[pageColors]
	// stackScratch holds runStacked's per-set clocks and per-position
	// stamps.
	stackScratch freeList[stackCounts]
)

// PassCounts counts the accesses of a measurement that were not
// simulated one by one, by how their cost was found instead.
type PassCounts struct {
	// Replayed counts measured accesses added arithmetically, as
	// repeats of a derived pass.
	Replayed int64
	// Filled counts warm-up accesses filled by fill, or by fillCoupled
	// for the coupled streams of RunConcurrentInto.
	Filled int64
	// Derived counts measured accesses costed by derivedPass from the
	// per-set line counts of a filled walk.
	Derived int64
	// InstallVisits counts the (access, level) pairs install visited
	// since the instance's previous measurement: the merged warm-up run
	// of RunConcurrentInto's coupled streams, and every pending end
	// state settled before a read, whichever call settled it — this
	// measurement, or an Access, AccessStrideAccum or Space.Free since
	// the last one. An end state a reset drops is never installed.
	InstallVisits int64
	// Stacked counts the accesses of a filled coupled pair after its
	// fill that runStacked costed by their LRU stack distance at the
	// pair's shared last level instead of looking them up.
	Stacked int64
	// Pages counts the pages the instance's spaces placed on frames
	// since its previous measurement: the pages of the arrays the
	// measurement walks, in practice. Retries counts the candidate
	// frames those placements found taken and passed over.
	Pages, Retries int64
}

// takeWork moves into c the work the instance counted since it was
// last taken — install visits, pages placed and placement retries — and
// starts those counts again from zero. AccessStridePasses and
// RunConcurrentInto call it once, at their end.
func (in *Instance) takeWork(c *PassCounts) {
	c.Pages, c.Retries = in.os.takePlaced()
	c.InstallVisits, in.installVisits = in.installVisits, 0
}

// add adds o's access counts to c; the work counts are taken once, by
// takeWork.
func (c *PassCounts) add(o PassCounts) {
	c.Replayed += o.Replayed
	c.Filled += o.Filled
	c.Derived += o.Derived
	c.Stacked += o.Stacked
}

// AccessStridePasses runs a whole strided measurement on one core: a
// warm-up traversal of base, base+stride, ... below base+bytes, whose
// costs are added to *total, then `passes` measured traversals, whose
// costs are added to both *total and *measured. It returns how many of
// the accesses it did not simulate one by one, and the work the
// instance counted since the last measurement took it (takeWork).
//
// The result is bit-identical to a warm-up AccessStrideAccum followed
// by `passes` measured ones, end state included: the caches, TLB and
// prefetcher every later call observes are the ones those traversals
// leave, though a filled walk's lines are installed only when a later
// call reads the caches (settle), and never when a reset comes first.
// What an earlier call left pending is settled before the first
// traversal this call simulates (traverse). A fill needs no settle: a
// cache that holds pending lines is occupied, so coldWalk declines it,
// and pending lines in caches off the core's plan are never read.
// The warm-up is filled when every cache on the core's plan is empty,
// the stride is at least every plan level's line, the prefetcher
// cannot follow it and one allocation maps the walk; it is simulated
// otherwise. After a fill the first measured pass is derived when
// every access costs an integer number of cycles (integralCosts), both
// accumulators hold integers below 2^53 and derivedPass can prove the
// pass's cost from the fill's per-set line counts. It then leaves the
// state as it found it, so every remaining pass repeats it access for
// access and their cost is the pass's sum d times their count k.
// AccessStridePasses adds d·k in one step when that stays below 2^53,
// so that it equals the k·n single additions bit for bit; otherwise the
// pass is derived again for each remaining pass. A warm-up that is not
// filled, and a pass that is not derived, is simulated, and so is every
// pass after it.
func (in *Instance) AccessStridePasses(core int, sp *Space, base, bytes, stride int64, passes int, total, measured *float64) PassCounts {
	counts := in.replayPasses(core, walk{sp: sp, base: base, bytes: bytes, stride: stride}, passes, total, measured)
	in.takeWork(&counts)
	return counts
}

// walk is the traversal a replayed measurement repeats: the strided
// run base, base+stride, ... below base+bytes, with a positive stride.
// It is a plain value, not a closure, so a pooled measurement that
// replays allocates nothing.
type walk struct {
	sp                  *Space
	base, bytes, stride int64
}

// accesses returns the number of accesses of one traversal.
func (w *walk) accesses() int64 {
	return (w.bytes + w.stride - 1) / w.stride
}

// traverse simulates one traversal of w on the core, adding each
// access's cost to *total and, when measured is non-nil, to *measured,
// in issue order, after settling every pending end state.
// AccessStrideAccum is traverse.
func (in *Instance) traverse(core int, w *walk, total, measured *float64) {
	in.settle()
	plan := in.planFor(core)
	shift, mask := in.pageShift, in.pageMask
	// Translate only on page crossings: the page table walk drops out of
	// the per-access work entirely. Translation is cost-free in the
	// model — the TLB, which does cost, is probed inside accessAt as
	// always — so the returned cycles are identical to the per-access
	// path.
	curVpage, pbase := int64(-1), int64(0)
	a := *total
	var b float64
	if measured != nil {
		b = *measured
	}
	for off := int64(0); off < w.bytes; off += w.stride {
		vaddr := w.base + off
		vpage := vaddr >> shift
		if vpage != curVpage {
			pbase = w.sp.translate(vaddr) &^ mask
			curVpage = vpage
		}
		c := in.accessAt(plan, 0, core, vaddr, pbase+vaddr&mask, vpage)
		a += c
		if measured != nil {
			b += c
		}
	}
	*total = a
	if measured != nil {
		*measured = b
	}
}

// Per-set facts of a filled walk, one byte per set of each plan level.
const (
	// setFull: the walk maps more lines to the set than it holds.
	setFull uint8 = 1 << iota
	// setReached: derivedPass proved that every line of the walk that
	// maps to the set reaches it, each access of a pass looking it up.
	setReached
)

// setCounts is what countWalk records about a cold walk for
// derivedPass: the walk's first address and stride, and for every plan
// level j the number of lines lines[j][s] the walk maps to set s,
// capped at assoc+1, the per-set facts sets[j][s] and the list
// touched[j] of the sets the walk maps lines to. Slabs are pooled on
// setScratch and only ever grow.
type setCounts struct {
	base, stride int64
	lines        [][]int32
	sets         [][]uint8
	touched      [][]int32
}

// reset sizes sc for the plan, clears every set's count and facts and
// empties every touched list, with room for every set of its level, so
// add never grows a list.
func (sc *setCounts) reset(plan []planLevel, base, stride int64) {
	sc.base, sc.stride = base, stride
	sc.lines, sc.sets, sc.touched = extend(sc.lines, len(plan)), extend(sc.sets, len(plan)), extend(sc.touched, len(plan))
	for j := range plan {
		n := int(plan[j].c.numSets)
		sc.lines[j], sc.sets[j] = extend(sc.lines[j], n), extend(sc.sets[j], n)
		clear(sc.lines[j])
		clear(sc.sets[j])
		sc.touched[j] = slices.Grow(sc.touched[j][:0], n)
	}
}

// extend returns s with length n, keeping the elements within its
// capacity, so the per-level slabs of a longer plan stay pooled.
func extend[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// add counts k more lines of the walk in set s of plan level j, whose
// sets hold assoc lines: the set joins touched[j] with its first line,
// its count stops at assoc+1, and it is marked setFull once the count
// passes assoc.
func (sc *setCounts) add(j int, s int64, k int32, assoc int64) {
	count := &sc.lines[j][s]
	if *count == 0 {
		sc.touched[j] = append(sc.touched[j], int32(s))
	}
	*count = int32(min(int64(*count)+int64(k), assoc+1))
	if int64(*count) > assoc {
		sc.sets[j][s] = setFull
	}
}

// constantStride returns the strided walk in sp of an address list
// that rises by one constant stride, and the zero walk, whose stride is
// 0, for any other list: one of fewer than two addresses has no
// stride.
func constantStride(sp *Space, addrs []int64) walk {
	if len(addrs) < 2 || addrs[1] <= addrs[0] {
		return walk{}
	}
	stride := addrs[1] - addrs[0]
	for i := 2; i < len(addrs); i++ {
		if addrs[i]-addrs[i-1] != stride {
			return walk{}
		}
	}
	return walk{sp: sp, base: addrs[0], bytes: int64(len(addrs)) * stride, stride: stride}
}

// coldWalk reports whether every access of a walk on the core from
// base by a constant stride provably misses at every level of the
// core's plan, given that while it runs nothing else drives the core's
// prefetcher or brings a line of the walk's frames into the plan's
// caches. The proof needs three facts, each checked:
//
//   - every cache on the core's plan holds no line;
//   - the stride is at least every plan level's line, and no line spans
//     pages, so each access touches a line no earlier access touched —
//     distinct pages of a space map to distinct frames;
//   - the core's prefetcher cannot fire: it is off, or the stride is
//     beyond it and the first access does not complete a stream it had
//     already begun.
func (in *Instance) coldWalk(core int, base, stride int64) bool {
	for _, pl := range in.planFor(core) {
		c := pl.c
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
	return true
}

// occupy readies every cache on the plan for a fill's appendLRU: it
// allocates the backing array an access would, and marks the cache
// occupied, as the fill's first miss would.
func occupy(plan []planLevel) {
	for _, pl := range plan {
		if pl.c.lines == nil {
			pl.c.grow()
		}
		pl.c.occupied = true
	}
}

// countWalk records in sc, which must have been reset for the plan,
// what a traversal that misses throughout — the n accesses base,
// base+stride, ... of a walk whose pages are on the given frames, the
// first holding base — would leave in the plan's empty
// caches, without installing a line: at each plan level j the lines the
// walk maps to each set, up to assoc+1, in sc.lines[j], the sets it
// maps lines to in sc.touched[j], and setFull in sc.sets[j] for each set
// that receives more lines than it holds. The proofs read these counts
// alone, never the tags.
//
// A level whose set count is a power of two, of a walk whose stride
// divides the page or is a multiple of it, counts the walk's complete
// pages per color (pageColors), reading each page's frame, or its
// virtual page for a virtually indexed level, and nothing else: every
// complete page holds the same offsets, which reach the same sets of
// its color block. Each color's count, up to assoc+1, is then added
// once to every set a complete page's offsets reach. Partial first and
// last pages, and every page at any other level, are counted access by
// access.
func (in *Instance) countWalk(plan []planLevel, frames []uint32, base, stride, n int64, sc *setCounts) {
	shift, mask := in.pageShift, in.pageMask
	pc := colorScratch.get()
	defer colorScratch.put(pc)
	pc.reset(plan, shift, stride)
	first := base >> shift
	paged, perAccess := false, false
	for _, cl := range pc.levels {
		paged = paged || cl.first >= 0
		perAccess = perAccess || cl.first < 0
	}
	lo, hi := n, n
	if paged {
		lo, hi = completePages(base, stride, n, mask+1)
	}
	in.countAccesses(plan, pc, frames, base, stride, 0, lo, true, sc)
	in.countAccesses(plan, pc, frames, base, stride, hi, n, true, sc)
	if perAccess {
		in.countAccesses(plan, pc, frames, base, stride, lo, hi, false, sc)
	}
	if lo == hi {
		return
	}
	step := max(1, stride>>shift)
	pageLo, pageHi := (base+lo*stride)>>shift, (base+(hi-1)*stride)>>shift
	// Every complete page holds the offsets (base mod page) mod stride
	// + i·stride below the page: one offset when the stride is a
	// multiple of the page.
	off := (base & mask) % stride
	for j, cl := range pc.levels {
		if cl.first < 0 {
			continue
		}
		c := plan[j].c
		swept := pc.swept[cl.first : cl.first+cl.mask+1]
		switch {
		case cl.mask == 0 || c.virtual && step&cl.mask == 0:
			// Every page has the first one's color.
			swept[pageLo&cl.mask] += (pageHi-pageLo)/step + 1
		case c.virtual:
			for q := pageLo; q <= pageHi; q += step {
				swept[q&cl.mask]++
			}
		default:
			for q := pageLo - first; q <= pageHi-first; q += step {
				swept[int64(frames[q])&cl.mask]++
			}
		}
		for color, k := range swept {
			if k == 0 {
				continue
			}
			k = min(k, c.assoc+1)
			for o := off; o <= mask; o += stride {
				line := (int64(color)<<shift + o) >> c.lineBits
				sc.add(j, line&(c.numSets-1), int32(k), c.assoc)
			}
		}
	}
}

// completePages returns the accesses lo ≤ i < hi of a walk of n
// accesses from base that lie on its complete pages — those that hold
// every offset the walk visits on a page — for a stride that divides
// the page or is a multiple of it: every page when there is one access
// per page, and otherwise the pages after a first page the walk enters
// past its first offset and before a last page it leaves early.
func completePages(base, stride, n, page int64) (lo, hi int64) {
	if stride >= page {
		return 0, n
	}
	if off := base & (page - 1); off >= stride {
		lo = min(n, (page-off+stride-1)/stride)
	}
	perPage := page / stride
	return lo, lo + (n-lo)/perPage*perPage
}

// countAccesses counts the accesses lo ≤ i < hi of a walk one by one,
// at every plan level when all is set and otherwise at the levels pc
// does not count by page. frames holds the frames of the walk's pages,
// from base's on.
func (in *Instance) countAccesses(plan []planLevel, pc *pageColors, frames []uint32, base, stride, lo, hi int64, all bool, sc *setCounts) {
	shift, mask := in.pageShift, in.pageMask
	first := base >> shift
	for i, vaddr := lo, base+lo*stride; i < hi; i, vaddr = i+1, vaddr+stride {
		paddr := int64(frames[vaddr>>shift-first])<<shift + vaddr&mask
		for j := range plan {
			if !all && pc.levels[j].first >= 0 {
				continue
			}
			c := plan[j].c
			pLine := paddr >> c.lineBits
			sc.add(j, c.setIndex(vaddr>>c.lineBits, pLine), 1, c.assoc)
		}
	}
}

// pageColors is countWalk's scratch: for every plan
// level, where its per-color counts of the complete pages swept start
// in swept and the mask that takes a page's frame or virtual page to
// its color. Slabs are pooled on colorScratch and only ever grow.
type pageColors struct {
	levels []colorLevel
	swept  []int64
}

// colorLevel is one plan level's part of pageColors: first is the
// index of its first color in swept, or −1 when countWalk counts the
// level access by access; mask is its color count less one.
type colorLevel struct {
	first, mask int64
}

// reset sizes pc for the plan and a walk of the given stride, with
// every count at 0. A level whose set count is a power of two has
// max(1, numSets·line/page) colors, the pages whose lines share its
// sets; every level is counted access by access when neither the
// stride nor the page divides the other.
func (pc *pageColors) reset(plan []planLevel, shift uint, stride int64) {
	page := int64(1) << shift
	aligned := page%stride == 0 || stride%page == 0
	pc.levels = slices.Grow(pc.levels[:0], len(plan))[:len(plan)]
	total := int64(0)
	for j := range plan {
		c := plan[j].c
		if !aligned || c.numSets&(c.numSets-1) != 0 {
			pc.levels[j] = colorLevel{first: -1}
			continue
		}
		colors := max(1, c.numSets<<c.lineBits>>shift)
		pc.levels[j] = colorLevel{first: total, mask: colors - 1}
		total += colors
	}
	pc.swept = slices.Grow(pc.swept[:0], int(total))[:total]
	clear(pc.swept)
}

// fill runs one traversal of w on the core, adding each access's cost
// to *total, without simulating its cache accesses, when it can prove
// that every access misses at every level, and reports true; otherwise
// it changes nothing and reports false. The proof is coldWalk's. fill
// also declines a walk that one allocation of its space does not map
// (Space.frames): the simulated traversal then crosses the guard page
// into the next allocation as the walk's accesses would, or panics on
// an unmapped page.
//
// Each access adds what accessAt would charge it, one at a time in
// issue order, so non-integral costs stay exact. The TLB is probed only
// when an access moves to a new page: an access on the page before it
// hits the MRU entry, which changes nothing. The prefetcher, which
// coldWalk proved cannot follow the stride, is left as observing every
// access would leave it (observeWalk), and every cache on the plan is
// marked occupied. The walk's lines are not installed: fill records the
// walk over the whole plan as a run of the instance's pending end
// state, which settle installs before anything reads the caches and a
// reset drops, so the caches are as the traversal leaves them to every
// later call. When sc is non-nil, countWalk records in it the per-set
// line counts the proofs read. fill allocates nothing once the plan's
// caches, sc, the color scratch and the pending slabs have been used.
func (in *Instance) fill(core int, w *walk, total *float64, sc *setCounts) bool {
	n, base, stride := w.accesses(), w.base, w.stride
	if n <= 0 || !in.coldWalk(core, base, stride) {
		return false
	}
	shift := in.pageShift
	frames := w.sp.frames(base>>shift, (base+(n-1)*stride)>>shift)
	if frames == nil {
		return false
	}

	plan := in.planFor(core)
	t := in.tlbs[core]
	cost, tlbCost := in.costs[0][in.levels+1], in.costs[1][in.levels+1]
	a := *total
	vaddr, vpage := base, base>>shift-1
	for i := int64(0); i < n; i, vaddr = i+1, vaddr+stride {
		if t != nil && vaddr>>shift != vpage {
			vpage = vaddr >> shift
			if !t.access(vpage) {
				a += tlbCost
				continue
			}
		}
		a += cost
	}
	*total = a
	in.pref[core].observeWalk(base, stride, n, shift)

	if sc != nil {
		sc.reset(plan, base, stride)
		in.countWalk(plan, frames, base, stride, n, sc)
	}
	in.postpone(nil, levelWalk{walk: *w, plan: plan})
	return true
}

// fillCoupled fills the cold warm-up of the coupled streams in idx —
// the streams RunConcurrentInto interleaves, with their cursors, clocks
// and walks in st — as far as the first access of
// any measured pass, when it can prove that every access before it
// misses at every level whatever the interleaving; otherwise it
// changes nothing and returns no fill. The proof needs, for every
// coupled stream:
//
//   - a core and a Space no other coupled stream has, so its core's
//     TLB and prefetcher see its accesses alone, and
//     its lines sit on frames no other stream maps, which the other
//     streams' misses never bring into a shared cache;
//   - a strided walk for which coldWalk holds on its core.
//
// Each access then costs what accessAt charges a miss everywhere, with
// the TLB term when its core's TLB misses, so the interleaving follows
// from those costs alone. fillCoupled runs the interleaver's (clock,
// index) order over them, adding each cost to its stream's clock in
// issue order and simulating each core's TLB access by access, and
// records the merged issue order in *order, one position in idx per
// access. Each core's prefetcher, which sees its own stream alone at a
// stride coldWalk proved beyond it, is set from the stream's filled
// accesses in closed form (observeWalk).
//
// It then proves, for each stream, a private prefix: the leading plan
// levels whose cache instance no other coupled stream's plan holds and
// at which every set the stream's walk touches receives more lines
// than it holds. Only the stream's accesses reach such a level, all of
// them when every level above it misses throughout, and they visit
// each set's lines in one cyclic order; LRU then misses on every
// access, the warm-up's and every later one, since assoc or more other
// lines of the set came since its line last did. Every complete pass,
// and so the run, ends with each such set holding its last assoc lines,
// MRU first, as an install of the whole walk leaves it. So
// fillCoupled runs countWalk over the whole walk at the stream's
// private levels, which are still empty, and takes as the prefix the
// leading levels at which every set with lines is marked setFull; a
// stream whose walk one allocation of its space does not map
// (Space.frames) has none. Nothing reads the prefix before the run
// ends, as no other stream reaches it and the prefetcher never fires,
// so the whole walk there is the run's end state from now on:
// fillCoupled records it as a pending run (postpone), and the
// interleaver skips the prefix (in.rc.skips), so coupled streams are
// simulated only from the first level after their prefix on.
//
// fillCoupled returns the number of accesses filled and the warm-up
// run: each stream's filled accesses over the levels after its prefix,
// in the merged order. RunConcurrentInto installs it, unless runStacked
// finishes the run. fillCoupled allocates nothing once the caches, the
// scratch slabs and the pending slabs have grown.
func (in *Instance) fillCoupled(streams []Stream, idx []int32, st []streamState, order *[]uint8) (counts PassCounts, warm run) {
	if len(idx) > math.MaxUint8+1 {
		return counts, warm
	}
	total := int64(0)
	for k, i := range idx {
		str, w := &streams[i], &st[i].w
		if w.stride == 0 || !in.coldWalk(str.Core, w.base, w.stride) {
			return counts, warm
		}
		for _, j := range idx[:k] {
			if streams[j].Core == str.Core || streams[j].Space == str.Space {
				return counts, warm
			}
		}
		total += w.accesses()
	}

	issued := slices.Grow((*order)[:0], int(total))
	shift := in.pageShift
	cost, tlbCost := in.costs[0][in.levels+1], in.costs[1][in.levels+1]
	for {
		k := earliest(idx, st)
		s := &st[idx[k]]
		w := &s.w
		if s.pass > 0 {
			break
		}
		off := int64(s.pos) * w.stride
		if t := in.tlbs[streams[idx[k]].Core]; t != nil && !t.access((w.base+off)>>shift) {
			s.clock += tlbCost
		} else {
			s.clock += cost
		}
		issued = append(issued, uint8(k))
		if s.pos++; off+w.stride >= w.bytes {
			s.pos, s.pass = 0, 1
		}
	}
	*order = issued

	sc := setScratch.get()
	defer setScratch.put(sc)
	warm = run{walks: in.rc.warm[:0], order: issued}
	for _, i := range idx {
		str, w := &streams[i], st[i].w
		plan := in.planFor(str.Core)
		private := 0
		for ; private < len(plan); private++ {
			shared := false
			for _, j := range idx {
				shared = shared || j != i && in.planFor(streams[j].Core)[private].c == plan[private].c
			}
			if shared {
				break
			}
		}
		n := w.accesses()
		skip := 0
		if frames := w.sp.frames(w.base>>shift, (w.base+(n-1)*w.stride)>>shift); private > 0 && frames != nil {
			sc.reset(plan[:private], w.base, w.stride)
			in.countWalk(plan[:private], frames, w.base, w.stride, n, sc)
		prefix:
			for ; skip < private; skip++ {
				for _, s := range sc.touched[skip] {
					if sc.sets[skip][s] == 0 {
						break prefix
					}
				}
			}
		}
		if skip > 0 {
			in.postpone(nil, levelWalk{walk: w, plan: plan[:skip]})
		}
		in.rc.skips[i] = skip
		filled := int64(st[i].pos + st[i].pass*int(n))
		in.pref[str.Core].observeWalk(w.base, w.stride, filled, shift)
		w.bytes = filled * w.stride
		warm.walks = append(warm.walks, levelWalk{walk: w, plan: plan[skip:]})
	}
	counts.Filled = int64(len(issued))
	return counts, warm
}

// stackable reports whether runStacked can finish the run of the
// coupled streams in idx, whose walks are in st, after fillCoupled has
// filled them: there are two, each skips every plan level but the
// last, both plans end in one cache instance, and the run's accesses,
// passes of both walks, fit runStacked's 32-bit clocks.
func (in *Instance) stackable(streams []Stream, idx []int32, st []streamState, passes int) bool {
	if len(idx) != 2 {
		return false
	}
	last := in.levels - 1
	a, b := idx[0], idx[1]
	return in.rc.skips[a] == last && in.rc.skips[b] == last &&
		in.planFor(streams[a].Core)[last].c == in.planFor(streams[b].Core)[last].c &&
		int64(passes)*(st[a].w.accesses()+st[b].w.accesses()) <= math.MaxInt32
}

// stackSet is one set of the shared level in runStacked: how many
// lines the two walks map to it, and its clock, the number of accesses
// it has had.
type stackSet struct {
	lines, clock int32
}

// stackLine is one walk position in runStacked: the set of its line at
// the shared level, and its stamp, the set's clock just after the
// line's last access, or 0 before its first.
type stackLine struct {
	set, stamp int32
}

// stackCounts is runStacked's scratch: the shared level's sets, and
// the positions of both walks, the lower-indexed stream's first. Slabs
// are pooled on stackScratch and only ever grow.
type stackCounts struct {
	sets  []stackSet
	lines []stackLine
}

// reset sizes sk for a level of the given sets, every one of them with
// no line and clock 0, and for the given walk positions, which
// runStacked writes in full before it reads them.
func (sk *stackCounts) reset(sets, lines int) {
	sk.sets = slices.Grow(sk.sets[:0], sets)[:sets]
	clear(sk.sets)
	sk.lines = slices.Grow(sk.lines[:0], lines)[:lines]
}

// stackCursor is one stream's interleaver cursor in runStacked: its
// walk, where its positions start in stackCounts.lines, its place in
// the run, its clock and measured cycles, its core's TLB and the page
// runStacked last probed it for, −1 before the first.
type stackCursor struct {
	w                   *walk
	first, n, pos, pass int
	clock, cycles       float64
	tlb                 *tlb
	vpage               int64
}

// runStacked finishes the run of the two coupled streams in idx, whose
// walks are in st, which fillCoupled has filled in the merged issue
// order and stackable admits, deciding every access after the fill by
// its LRU stack distance at the shared last level C instead of looking
// its line up. The fill proved that both streams miss throughout at
// every level above C, so every access of the run looks its line up at
// C, and nothing else does: each stream has its own core and space, and
// no prefetcher fires, since the stride and the wrap-around jump are
// both beyond it. The two walks' lines are distinct, and each walk
// visits the lines it maps to a set s of C in one cyclic order. LRU
// hits on a line iff fewer than assoc distinct other lines of its set
// came since its last access. Let x be a line of one walk, which maps
// a lines to s, let the other map b lines there, and let w accesses to
// s come between two accesses of x. x's own walk brings each of its
// other a−1 lines of s once in between; the other walk's w−(a−1)
// accesses to s are consecutive in its cyclic order, so they bring
// min(b, w−(a−1)) distinct lines. x hits iff (a−1) + min(b, w−(a−1)) <
// assoc, that is iff w < assoc or a+b ≤ assoc; a line never accessed
// before misses.
//
// So runStacked keeps, in slabs of stackScratch, one clock per set of
// C, counting its accesses, and for each walk position the set of its
// line, found with one translation per page, and a stamp, its set's
// clock just after the line's last access. A forward sweep over
// the fill's order stamps the filled accesses. The passes then
// interleave as RunConcurrentInto's loop would, the stream of smaller
// (clock, index) issuing next, each core's TLB probed on its stream's
// first access after the fill and then only when the stream moves to a
// new page — an access on the page its core last probed hits the MRU
// entry and changes nothing — and each access adding
// costs[t][L] on a hit at C or costs[t][L+1] on a miss to its clock
// and, in a measured pass, to its cycles, in issue order, so the
// statistics are the interleaver's bit for bit at any latencies.
//
// Every line's last access falls in its stream's last pass, so C ends
// as the last passes of both walks, in the order they were issued,
// leave it. runStacked records that order in the instance's pending
// order slab and leaves the two walks over C pending, as one run in
// that order. Each core's prefetcher, which has seen every access of
// its stream at a stride beyond it, is set in closed form (endWalk).
// It writes both streams' statistics, returns the accesses it decided,
// and allocates nothing once the scratch and pending slabs have grown.
func (in *Instance) runStacked(streams []Stream, idx []int32, st []streamState, passes int, stats []StreamStats, order []uint8) (counts PassCounts) {
	ids := [2]int32{idx[0], idx[1]}
	last := in.levels - 1
	c := in.planFor(streams[ids[0]].Core)[last].c
	shift, mask := in.pageShift, in.pageMask
	n0, n1 := int(st[ids[0]].w.accesses()), int(st[ids[1]].w.accesses())
	sk := stackScratch.get()
	defer stackScratch.put(sk)
	sk.reset(int(c.numSets), n0+n1)
	sets, lines := sk.sets, sk.lines

	var cur [2]stackCursor
	for k, i := range ids {
		w := &st[i].w
		cu := &cur[k]
		*cu = stackCursor{w: w, first: k * n0, n: int(w.accesses()), pos: st[i].pos, pass: st[i].pass, clock: st[i].clock, tlb: in.tlbs[streams[i].Core], vpage: -1}
		vpage, pbase := int64(-1), int64(0)
		for p := range cu.n {
			vaddr := w.base + int64(p)*w.stride
			if vp := vaddr >> shift; vp != vpage {
				vpage, pbase = vp, w.sp.translate(vaddr)&^mask
			}
			pLine := (pbase + vaddr&mask) >> c.lineBits
			s := c.setIndex(vaddr>>c.lineBits, pLine)
			lines[cu.first+p] = stackLine{set: int32(s)}
			sets[s].lines++
		}
	}
	filled := [2]int{}
	for _, k := range order {
		l := &lines[cur[k].first+filled[k]]
		filled[k]++
		s := &sets[l.set]
		s.clock++
		l.stamp = s.clock
	}

	lo := len(in.pend.order)
	lastPass := slices.Grow(in.pend.order, n0+n1)
	costs := [2][2]float64{
		{in.costs[0][in.levels], in.costs[0][in.levels+1]},
		{in.costs[1][in.levels], in.costs[1][in.levels+1]},
	}
	assoc := int32(c.assoc)
	k := 0
	if cur[1].clock < cur[0].clock {
		k = 1
	}
issue:
	for {
		cu := &cur[k]
		t := 0
		if cu.tlb != nil {
			if vp := (cu.w.base + int64(cu.pos)*cu.w.stride) >> shift; vp != cu.vpage {
				cu.vpage = vp
				if !cu.tlb.access(vp) {
					t = 1
				}
			}
		}
		l := &lines[cu.first+cu.pos]
		s := &sets[l.set]
		miss := 1
		if l.stamp != 0 && (s.clock-l.stamp < assoc || s.lines <= assoc) {
			miss = 0
		}
		s.clock++
		l.stamp = s.clock
		cost := costs[t][miss]
		cu.clock += cost
		if cu.pass > 0 {
			cu.cycles += cost
		}
		if cu.pass == passes-1 {
			lastPass = append(lastPass, uint8(k))
		}
		if cu.pos++; cu.pos == cu.n {
			cu.pos = 0
			cu.pass++
		}
		switch {
		case cur[0].pass == passes && cur[1].pass == passes:
			break issue
		case cur[0].pass == passes:
			k = 1
		case cur[1].pass == passes:
			k = 0
		case cur[1].clock < cur[0].clock:
			k = 1
		default:
			k = 0
		}
	}

	in.pend.order = lastPass
	var pair [2]levelWalk
	for k, i := range ids {
		w, core := cur[k].w, streams[i].Core
		in.pref[core].endWalk(w.base+int64(cur[k].n-2)*w.stride, w.base+int64(cur[k].n-1)*w.stride)
		stats[i] = StreamStats{Accesses: int64(passes-1) * int64(cur[k].n), Cycles: cur[k].cycles}
		pair[k] = levelWalk{walk: *w, plan: in.planFor(core)[last:]}
	}
	in.postpone(lastPass[lo:len(lastPass):len(lastPass)], pair[:]...)
	counts.Stacked = int64(passes*(n0+n1) - filled[0] - filled[1])
	return counts
}

// derivedPass costs one measured traversal of a walk fill has just
// filled, from the per-set counts fill recorded in sc, without
// simulating it, and leaves every piece of state as fill left it, the
// pending end state included. It adds the pass's cost to *total and
// *measured, bit for bit what adding each access's cost in issue order
// would give, and returns true when every access costs an integer
// number of cycles, both accumulators and their sums with the pass's
// cost are integers below 2^53 and provePass can prove that cost;
// otherwise it changes nothing, *total and *measured included, and
// returns false.
//
// After the fill, each set at each level holds — pending or installed —
// the last min(k, assoc) of its k lines, MRU first. provePass shows from the per-set facts
// alone that every set at every level is reached by all of its lines
// or by none. A reached set then sees its own lines in the same cyclic
// order again: with k ≤ assoc every access hits and restores the set's
// order, with k > assoc every access misses, evicting the line it
// returns to last, and the set again holds the last assoc lines. Sets
// no access reaches are untouched. Every access therefore hits at the
// first level whose set has k ≤ assoc, or misses everywhere.
//
// The TLB, an LRU over the walk's P pages visited in order, hits on
// every access when P is within its entries and otherwise misses on
// the first access of each page, and it ends holding the pages it held.
// The prefetcher never fires — fill proved the stride beyond it, and
// the wrap-around jump is larger still — and with at least two
// accesses a pass leaves it where the fill did.
//
// The pass's cost is then one sum over the touched sets (countedCost).
// Every term is a non-negative integer, so with integer accumulators
// every partial sum of the issue-order additions is exact, and adding
// the sum once gives the same bits. derivedPass allocates nothing once
// sc has been used on the plan.
func (in *Instance) derivedPass(core int, w *walk, sc *setCounts, total, measured *float64) bool {
	n := w.accesses()
	plan := in.planFor(core)
	if n < 2 || !in.exact || !exactInt(*total) || !exactInt(*measured) || !in.provePass(plan, sc) {
		return false
	}
	pages, tlbPage := in.passPages(core, sc, n)
	d := in.countedCost(plan, sc, n, pages, tlbPage)
	if !exactInt(d) || !exactInt(*total+d) || !exactInt(*measured+d) {
		return false
	}
	*total += d
	*measured += d
	return true
}

// passPages returns the number of pages a pass of n accesses of the
// walk in sc visits, and 1 when the core's TLB misses on the first
// access of each — the pages outnumber its entries — or 0 when every
// access hits it.
func (in *Instance) passPages(core int, sc *setCounts, n int64) (pages int64, tlbPage int) {
	pages = n
	if sc.stride < in.m.PageBytes {
		pages = (sc.base+(n-1)*sc.stride)>>in.pageShift - sc.base>>in.pageShift + 1
	}
	if t := in.tlbs[core]; t != nil && pages > int64(t.entries) {
		tlbPage = 1
	}
	return pages, tlbPage
}

// provePass marks setReached, in sc, the sets of a filled walk that
// every line mapping to them reaches in a measured pass, and reports
// whether it could prove that each touched set is reached by all of
// its lines or by none, visiting each touched set once per level.
// Every line reaches level 0. A line goes on past a set that is both
// reached and full, so at level j ≥ 1 the proof takes one of two
// cases:
//
//   - the pair nests (plan[j].nest ≥ 0): every line of a set of level j
//     maps to one parent set of level j−1, so the set is reached when
//     its parent is reached and full;
//   - it does not, and either every touched set of level j−1 is
//     reached and full, so every line goes on and every touched set of
//     level j is reached, or none of its reached sets is full, so no
//     line goes on.
//
// Otherwise it returns false.
func (in *Instance) provePass(plan []planLevel, sc *setCounts) bool {
	const passOn = setFull | setReached
	for j := range plan {
		sets := sc.sets[j]
		reach := setReached
		if j > 0 {
			up := sc.sets[j-1]
			if d := plan[j].nest; d >= 0 {
				nUp := plan[j-1].c.numSets
				for _, s := range sc.touched[j] {
					r := uint8(0)
					if up[(int64(s)>>d)%nUp] == passOn {
						r = setReached
					}
					sets[s] = sets[s]&setFull | r
				}
				continue
			}
			all, none := true, true
			for _, s := range sc.touched[j-1] {
				all = all && up[s] == passOn
				none = none && up[s] != passOn
			}
			switch {
			case none:
				reach = 0
			case !all:
				return false
			}
		}
		for _, s := range sc.touched[j] {
			sets[s] = sets[s]&setFull | reach
		}
	}
	return true
}

// countedCost returns the cost of a pass provePass has proved, as one
// sum over the touched sets: each line of a reached set that fits —
// the set holds all of them, so its count in sc counts them — hits
// there, at costs[0][j+1] for level j, every other line misses
// everywhere, at costs[0][L+1], and when tlbPage is 1 each of the
// pass's pages adds the TLB miss penalty once. With integral costs
// every term is a non-negative integer, so the sum is exact whenever
// it stays below 2^53, whatever its order.
func (in *Instance) countedCost(plan []planLevel, sc *setCounts, n, pages int64, tlbPage int) float64 {
	d, misses := 0.0, n
	for j := range plan {
		lines, sets := sc.lines[j], sc.sets[j]
		var hits int64
		for _, s := range sc.touched[j] {
			if sets[s] == setReached {
				hits += int64(lines[s])
			}
		}
		misses -= hits
		d += float64(hits) * in.costs[0][j+1]
	}
	return d + float64(misses)*in.costs[0][len(plan)+1] + float64(int64(tlbPage)*pages)*in.tlbMiss
}

// replayPasses is the measurement loop of AccessStridePasses and of
// RunConcurrentInto's lone strided streams: a warm-up traversal,
// filled when fill can prove it misses everywhere, then `passes`
// measured ones, derived after a fill while derivedPass can prove their
// cost and simulated otherwise, replaying the rest arithmetically after
// a derived pass.
func (in *Instance) replayPasses(core int, w walk, passes int, total, measured *float64) (c PassCounts) {
	n := w.accesses()
	var sc *setCounts
	if passes > 0 {
		sc = setScratch.get()
		defer setScratch.put(sc)
	}
	derive := in.fill(core, &w, total, sc)
	if derive {
		c.Filled = n
	} else {
		in.traverse(core, &w, total, nil)
	}
	for pass := 1; pass <= passes; pass++ {
		m0 := *measured
		if derive = derive && in.derivedPass(core, &w, sc, total, measured); !derive {
			in.traverse(core, &w, total, measured)
			continue
		}
		c.Derived += n
		// derivedPass moved the accumulators from integers to integers
		// below 2^53 by non-negative integer steps, so every partial sum
		// was exact and d is the pass's exact cost.
		k := passes - pass
		d := *measured - m0
		dk := d * float64(k)
		if !exactInt(dk) || !exactInt(*total+dk) || !exactInt(*measured+dk) {
			continue
		}
		*total += dk
		*measured += dk
		c.Replayed = int64(k) * n
		return c
	}
	return c
}
