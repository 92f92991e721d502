package memsys

import (
	"math/rand"
	"strings"
	"testing"

	"servet/internal/topology"
)

// Tests pinning the 32-bit frame and line-tag representation at the
// top of its range: a node at topology.MaxPhysIndexes physical lines
// simulates exactly like the reference model, and a node past it is
// refused.

// boundMachine is a one-core node at the bound: 2^18 frames of 1 MB
// pages hold 2^32 64-byte lines, so the largest physical line index is
// 2^32-1 and every frame in the top half yields line tags with bit 31
// set. Both levels are physically indexed, and the prefetcher and TLB
// are off, so an access's cost is a pure function of the two levels'
// LRU state.
func boundMachine() *topology.Machine {
	return &topology.Machine{
		Name: "phys-bound", ClockGHz: 1, Nodes: 1, CoresPerNode: 1,
		PageBytes: 1 * topology.MB, PhysPagesPerNode: 1 << 18,
		Caches: []topology.CacheLevel{
			{Level: 1, SizeBytes: 4 * topology.KB, Assoc: 2, LineBytes: 64, LatencyCycles: 3,
				Indexing: topology.PhysicallyIndexed, Groups: topology.PrivateGroups(1)},
			{Level: 2, SizeBytes: 64 * topology.KB, Assoc: 4, LineBytes: 64, LatencyCycles: 10,
				Indexing: topology.PhysicallyIndexed, Groups: topology.PrivateGroups(1)},
		},
		Memory: topology.Memory{LatencyCycles: 100, PerCoreGBs: 1},
	}
}

// contains reports whether the reference cache holds the line.
func (r *refCache) contains(line int64) bool {
	for _, tag := range r.sets[line%r.nsets] {
		if tag == line {
			return true
		}
	}
	return false
}

// TestPhysBoundTopOfRange maps half the frames of a node at the bound,
// then hammers pages whose frames differ only in their top bit — line
// tags that differ only in bit 31 and fall in the same set of both
// levels — plus the highest mapped frame's last line. Every access's
// cost and every Cached answer must match the int64 reference model:
// a tag that wrapped or truncated would alias the pair and hit where
// the reference misses.
func TestPhysBoundTopOfRange(t *testing.T) {
	m := boundMachine()
	if err := m.Validate(); err != nil {
		t.Fatalf("machine at the bound rejected: %v", err)
	}
	const lineShift = 6
	if lines := m.PhysPagesPerNode * m.PageBytes >> lineShift; lines != topology.MaxPhysIndexes {
		t.Fatalf("machine has %d physical lines, want exactly 2^32", lines)
	}
	in := NewInstanceAt(m, 1)
	sp := in.NewSpace()
	const frames, half = 1 << 18, 1 << 17
	a := sp.Alloc(half * m.PageBytes)
	// vaddrOf[f] is the virtual base of the page mapped to frame f, or
	// 0 when f is free.
	vaddrOf := make([]int64, frames)
	for i := int64(0); i < half; i++ {
		v := a.Base + i*m.PageBytes
		vaddrOf[sp.translate(v)/m.PageBytes] = v
	}
	// Pages under test: four (f, f|2^17) alias pairs taken from the top
	// of the lower half down, then the highest mapped frame.
	var pages []int64
	for f := half - 1; f >= 0 && len(pages) < 8; f-- {
		if vaddrOf[f] != 0 && vaddrOf[f|half] != 0 {
			pages = append(pages, vaddrOf[f], vaddrOf[f|half])
		}
	}
	top := frames - 1
	for vaddrOf[top] == 0 {
		top--
	}
	pages = append(pages, vaddrOf[top])
	if len(pages) != 9 {
		t.Fatalf("found %d pages under test, want 9", len(pages))
	}
	if top < frames-16 {
		t.Fatalf("highest mapped frame %d is not near the top", top)
	}
	// Offsets 16 KB apart share a set in both levels (256 lines, a
	// multiple of either level's set count); the page's last line is the
	// highest line index of its frame.
	offsets := []int64{0, 16 * topology.KB, 32 * topology.KB, 48 * topology.KB, m.PageBytes - 64}
	ref := func(c topology.CacheLevel) *refCache {
		return newRefCache(c.SizeBytes/(c.LineBytes*int64(c.Assoc)), c.Assoc)
	}
	l1, l2 := ref(m.Caches[0]), ref(m.Caches[1])
	rng := rand.New(rand.NewSource(7))
	var topHalf int
	for i := 0; i < 20000; i++ {
		pi := rng.Intn(len(pages))
		off := offsets[rng.Intn(len(offsets))]
		v := pages[pi] + off
		line := sp.translate(v) >> lineShift
		if line >= 1<<31 {
			topHalf++
		}
		want := m.Caches[0].LatencyCycles
		if !l1.access(line) {
			want += m.Caches[1].LatencyCycles
			if !l2.access(line) {
				want += m.Memory.LatencyCycles
			}
		}
		if got := in.Access(0, sp, v); got != want {
			t.Fatalf("access %d: frame line %#x cost %v, reference %v", i, line, got, want)
		}
		// The alias partner (same offset, frame differing in bit 17)
		// must be cached exactly when the reference holds it.
		partner := v
		if pi < len(pages)-1 {
			partner = pages[pi^1] + off
		}
		pl := sp.translate(partner) >> lineShift
		if got, want := in.Cached(1, 0, sp, partner), l1.contains(pl); got != want {
			t.Fatalf("access %d: L1 Cached(%#x) = %v, reference %v", i, pl, got, want)
		}
		if got, want := in.Cached(2, 0, sp, partner), l2.contains(pl); got != want {
			t.Fatalf("access %d: L2 Cached(%#x) = %v, reference %v", i, pl, got, want)
		}
	}
	if topHalf == 0 {
		t.Fatal("no access touched a line index with bit 31 set")
	}
}

// TestNewInstanceAtRejectsPastPhysBound: one frame past the bound is
// 2^14 lines past it, and NewInstanceAt refuses the machine as it
// refuses a bad page size.
func TestNewInstanceAtRejectsPastPhysBound(t *testing.T) {
	m := boundMachine()
	m.PhysPagesPerNode++
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "2^32 line bound") {
			t.Fatalf("NewInstanceAt past the bound: recovered %v, want a line-bound panic", r)
		}
	}()
	NewInstanceAt(m, 1)
}
