package memsys

// prefetcher models a per-core constant-stride hardware prefetcher: it
// recognizes streams of accesses with a repeating stride up to
// maxStride bytes and installs the next line ahead of the stream. It
// never crosses a page boundary, as real prefetchers operate on
// physical addresses.
//
// Servet's probes use a 1 KB stride precisely because current
// prefetchers work with strides up to 256 or 512 bytes (paper,
// Section III-A); the ablation benchmark shows what goes wrong with a
// smaller stride.
type prefetcher struct {
	maxStride int64
	last      int64
	stride    int64
	streak    int
	primed    bool
}

// observe records an access and returns the address to prefetch, if
// any. A stream is recognized after two consecutive accesses with the
// same non-zero stride whose magnitude is at most maxStride. The page
// is identified by its shift (pages are powers of two), keeping the
// per-access boundary check division-free.
func (p *prefetcher) observe(vaddr int64, pageShift uint) (next int64, ok bool) {
	if p.maxStride <= 0 {
		return 0, false
	}
	if p.primed {
		stride := vaddr - p.last
		if stride != 0 && stride == p.stride && abs64(stride) <= p.maxStride {
			p.streak++
		} else {
			p.stride = stride
			p.streak = 0
		}
	}
	p.last = vaddr
	p.primed = true
	if p.streak >= 2 {
		next = vaddr + p.stride
		// Do not cross the page boundary.
		if next >= 0 && next>>pageShift == vaddr>>pageShift {
			return next, true
		}
	}
	return 0, false
}

// observeWalk leaves the prefetcher as n calls of observe over the
// walk base, base+stride, ... would, for a stride beyond it: |stride| >
// maxStride. The first call may fire and sets the state from what came
// before; each later one meets a stride the prefetcher cannot follow,
// so it stores that stride and clears the streak, and never fires. A
// prefetcher with maxStride ≤ 0 ignores every access.
func (p *prefetcher) observeWalk(base, stride, n int64, pageShift uint) {
	if n <= 0 || p.maxStride <= 0 {
		return
	}
	p.observe(base, pageShift)
	if n > 1 {
		p.endWalk(base+(n-2)*stride, base+(n-1)*stride)
	}
}

// endWalk leaves the prefetcher as a walk at a stride beyond it leaves
// it once the walk's last two accesses, prev and then last, have been
// observed: each observe of such a walk meets a stride the prefetcher
// cannot follow, so it stores that stride and clears the streak. A
// prefetcher with maxStride ≤ 0 ignores every access.
func (p *prefetcher) endWalk(prev, last int64) {
	if p.maxStride > 0 {
		p.last, p.stride, p.streak, p.primed = last, last-prev, 0, true
	}
}

func (p *prefetcher) reset() {
	p.last, p.stride, p.streak, p.primed = 0, 0, 0, false
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
