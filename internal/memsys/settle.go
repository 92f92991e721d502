package memsys

import "math"

// A measurement that fills a cold walk proves its end state without
// building it: its proofs read per-set line counts (countWalk), never
// tags. One installer, install, builds every such end state: a run of
// strided walks, each with the plan levels whose caches take its lines,
// issued in one order, is installed by one reverse sweep that appends
// each access's line at the LRU end of its walk's levels.
//
// Every probe resets the instance after its measurement, so the tags a
// fill would install are usually never read. fill, the private
// prefixes of fillCoupled and the shared level of runStacked therefore
// record their runs as the instance's pending end state instead of
// installing them. Every call that reads or changes cache contents
// settles first, installing what is pending: Access, AccessStrideAccum
// and the passes AccessStridePasses simulates (traverse),
// RunConcurrentInto, and Space.Free, whose frames the installs
// translate. A fill reads no cache another fill left pending: such a
// cache is occupied, and the fill declines it. ResetAt and ResetCaches
// drop what is pending. The TLBs, prefetchers and occupied flags are
// set eagerly, so only the tags and set lengths wait. fillCoupled's
// interleaved levels, which the interleaver reads mid-run, are
// installed at once, without settling what else is pending.
//
// Every pending install targets caches that were empty when it was
// recorded and that nothing has touched since: a walk's fill holds the
// core's whole plan, a coupled stream's prefix caches no other stream
// reaches, and a stacked pair's shared level lies past both prefixes;
// the streams that run alone in one RunConcurrentInto share no cache
// with each other or with the coupled ones. So the installs commute,
// and settle performs them in any order.
//
// install adds the (access, level) pairs it visits to the instance's
// installVisits, which AccessStridePasses and RunConcurrentInto move
// into their PassCounts at their end (takeWork): an install that Access
// or Space.Free settles is reported by the next measurement.

// levelWalk is one walk of a run: a strided walk, and the plan levels
// whose caches take its lines.
type levelWalk struct {
	walk
	plan []planLevel
}

// run is what install builds: the lines of walks that miss throughout
// at their levels, issued in one order. order[i] names the walk of the
// run's i-th access, and is nil when the run has one walk.
type run struct {
	walks []levelWalk
	order []uint8
}

// pending is the instance's pending end state, the runs settle
// installs. Their walks sit in walks, one run after another: a later
// append writes past them or into a new array, so a run's walks stay
// as postpone copied them. order holds the orders of the runs that
// have one, in the same way. Every slab stays pooled on the instance.
type pending struct {
	runs  []run
	walks []levelWalk
	order []uint8
}

// postpone marks every cache on the walks' plans occupied, as their
// first misses would, and records the run of the walks in the given
// order as pending.
func (in *Instance) postpone(order []uint8, walks ...levelWalk) {
	for _, w := range walks {
		occupy(w.plan)
	}
	p := &in.pend
	lo := len(p.walks)
	p.walks = append(p.walks, walks...)
	p.runs = append(p.runs, run{walks: p.walks[lo:len(p.walks):len(p.walks)], order: order})
}

// waiting reports whether an install is pending: all that Access's hot
// path pays for settling.
func (p *pending) waiting() bool {
	return len(p.runs) > 0
}

// settle installs every pending run, so the caches hold exactly what
// the measurements that recorded them left.
func (in *Instance) settle() {
	if !in.pend.waiting() {
		return
	}
	for _, r := range in.pend.runs {
		in.install(r)
	}
	in.dropPending()
}

// dropPending forgets every pending run. A reset calls it, since the
// caches it empties would lose those lines anyway.
func (in *Instance) dropPending() {
	p := &in.pend
	clear(p.runs)
	clear(p.walks)
	p.runs, p.walks, p.order = p.runs[:0], p.walks[:0], p.order[:0]
}

// install leaves each walk's levels, which hold none of the run's lines,
// as the run leaves them when every access misses there: each set holds
// the last min(k, assoc) of the k lines mapped to it, MRU first — a
// private level its own walk's, a shared one the merged order's. One
// reverse sweep of the run builds that by appending each access's line
// at the LRU end of every level of its walk whose set is not yet full:
// no tag scan and no shift. Each walk translates once per page. install
// adds n·levels visits for each walk of n accesses to in.installVisits,
// and allocates nothing once the caches have grown.
func (in *Instance) install(r run) {
	// Each walk's place in the sweep: how many of its accesses remain,
	// and the page it last translated. An order names at most 256 walks.
	var cur [math.MaxUint8 + 1]struct{ left, vpage, pbase int64 }
	total := int64(0)
	for k := range r.walks {
		w := &r.walks[k]
		n := w.accesses()
		cur[k].left, cur[k].vpage = n, -1
		total += n
		in.installVisits += n * int64(len(w.plan))
		if n > 0 {
			occupy(w.plan)
		}
	}
	shift, mask := in.pageShift, in.pageMask
	for j := total - 1; j >= 0; j-- {
		k := 0
		if r.order != nil {
			k = int(r.order[j])
		}
		w, cu := &r.walks[k], &cur[k]
		cu.left--
		vaddr := w.base + cu.left*w.stride
		if vp := vaddr >> shift; vp != cu.vpage {
			cu.vpage, cu.pbase = vp, w.sp.translate(vaddr)&^mask
		}
		paddr := cu.pbase + vaddr&mask
		for _, pl := range w.plan {
			c := pl.c
			pLine := paddr >> c.lineBits
			c.appendLRU(c.setIndex(vaddr>>c.lineBits, pLine), pLine)
		}
	}
}
