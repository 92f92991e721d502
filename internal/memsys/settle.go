package memsys

// A measurement that fills a cold walk proves its end state without
// building it: its proofs read per-set line counts (countWalk), never
// tags, and every probe resets the instance after the measurement, so
// the tags a fill would install are usually never read. fill, the
// private prefixes of fillCoupled and the shared level of runStacked
// therefore record their installs as the instance's pending end state
// instead of performing them. Every call that reads or changes cache
// contents settles first, installing what is pending: Access,
// AccessStrideAccum, RunConcurrentInto and Space.Free, whose frames the
// installs translate. AccessStridePasses settles before the first pass
// it simulates (traverse), since a fill reads no cache another fill
// left pending: such a cache is occupied, and the fill declines it.
// ResetAt and ResetCaches drop what is pending.
// The TLBs, prefetchers and occupied flags are set eagerly, so only
// the tags and set lengths wait.
//
// Every pending install targets caches that were empty when it was
// recorded and that nothing has touched since: a walk's fill holds the
// core's whole plan, a coupled stream's prefix caches no other stream
// reaches, and a stacked pair's shared level lies past both prefixes;
// the streams that run alone in one RunConcurrentInto share no cache
// with each other or with the coupled ones. So the installs commute,
// and settle performs them in any order.

// pendingWalk is a filled walk's deferred end state: the lines of one
// traversal of w that misses throughout, at the plan levels given.
type pendingWalk struct {
	plan []planLevel
	w    walk
}

// pendingPair is runStacked's deferred end state of the shared level c,
// or none while c is nil: the last passes of the pair's walks, in the
// order they were issued, bit i of lastPass telling whether the i-th of
// those accesses was one of walks[1]. The bits stay pooled on the
// instance.
type pendingPair struct {
	c        *cache
	walks    [2]walk
	lastPass []uint64
}

// pending is the instance's pending end state.
type pending struct {
	walks []pendingWalk
	pair  pendingPair
}

// waiting reports whether an install is pending: all that Access's hot
// path pays for settling.
func (p *pending) waiting() bool {
	return len(p.walks) > 0 || p.pair.c != nil
}

// postpone marks every cache on the plan occupied, as the walk's first
// miss would, and records the walk's lines at those levels as pending.
func (in *Instance) postpone(plan []planLevel, w walk) {
	occupy(plan)
	in.pend.walks = append(in.pend.walks, pendingWalk{plan: plan, w: w})
}

// settle installs every pending end state, so the caches hold exactly
// what the measurements that recorded it left, and returns the (access,
// level) pairs it looked at.
func (in *Instance) settle() (visits int64) {
	if !in.pend.waiting() {
		return 0
	}
	for _, p := range in.pend.walks {
		visits += in.installWalk(p.plan, p.w.sp, p.w.base, p.w.stride, p.w.accesses())
	}
	if in.pend.pair.c != nil {
		visits += in.installPair(&in.pend.pair)
	}
	in.dropPending()
	return visits
}

// dropPending forgets every pending end state. A reset calls it, since
// the caches it empties would lose those lines anyway.
func (in *Instance) dropPending() {
	clear(in.pend.walks)
	in.pend.walks = in.pend.walks[:0]
	p := &in.pend.pair
	p.c, p.walks = nil, [2]walk{}
}

// installPair installs a stacked pair's shared level as the run left
// it, and returns its visits, one per walk position: one reverse sweep
// over the accesses of both last passes. Each line's last access is in
// its walk's last pass, which visits each of the walk's lines once, so
// appending at the LRU end as installWalk does leaves each set with its
// last lines, MRU first. Each walk translates once per page.
func (in *Instance) installPair(p *pendingPair) int64 {
	c := p.c
	shift, mask := in.pageShift, in.pageMask
	left := [2]int64{p.walks[0].accesses(), p.walks[1].accesses()}
	vpage, pbase := [2]int64{-1, -1}, [2]int64{}
	for j := left[0] + left[1] - 1; j >= 0; j-- {
		k := p.lastPass[j>>6] >> (j & 63) & 1
		left[k]--
		w := &p.walks[k]
		vaddr := w.base + left[k]*w.stride
		if vp := vaddr >> shift; vp != vpage[k] {
			vpage[k], pbase[k] = vp, w.sp.translate(vaddr)&^mask
		}
		pLine := (pbase[k] + vaddr&mask) >> c.lineBits
		c.appendLRU(c.setIndex(vaddr>>c.lineBits, pLine), pLine)
	}
	return p.walks[0].accesses() + p.walks[1].accesses()
}
