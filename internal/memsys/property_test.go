package memsys

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"servet/internal/stats"
	"servet/internal/topology"
)

// refCache is a trivially-correct reference model of a set-associative
// LRU cache: per set, an ordered slice of tags, MRU first.
type refCache struct {
	sets  map[int64][]int64
	assoc int
	nsets int64
}

func newRefCache(nsets int64, assoc int) *refCache {
	return &refCache{sets: map[int64][]int64{}, assoc: assoc, nsets: nsets}
}

func (r *refCache) access(line int64) bool {
	idx := line % r.nsets
	set := r.sets[idx]
	for i, tag := range set {
		if tag == line {
			// Move to front.
			set = append(set[:i], set[i+1:]...)
			r.sets[idx] = append([]int64{line}, set...)
			return true
		}
	}
	set = append([]int64{line}, set...)
	if len(set) > r.assoc {
		set = set[:r.assoc]
	}
	r.sets[idx] = set
	return false
}

// TestCacheMatchesReferenceModel drives the production cache and the
// reference model with identical random access streams and demands
// hit-for-hit agreement.
func TestCacheMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := &topology.CacheLevel{
			Level: 1, SizeBytes: 4096, Assoc: 4, LineBytes: 64,
			LatencyCycles: 1, Indexing: topology.PhysicallyIndexed,
			Groups: topology.PrivateGroups(1),
		}
		c := newCache(spec)
		ref := newRefCache(c.numSets, spec.Assoc)
		for i := 0; i < 2000; i++ {
			line := int64(rng.Intn(128))
			if c.access(line, line) != ref.access(line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestFairShareParetoProperty checks the defining max-min fairness
// invariant: every core's share is pinned by a binding constraint —
// either the per-core cap or a saturated bandwidth domain it belongs
// to. (Otherwise its share could be raised without hurting anyone,
// contradicting max-min optimality.)
func TestFairShareParetoProperty(t *testing.T) {
	machines := []*topology.Machine{
		topology.FinisTerrae(1), topology.Dunnington(), topology.Nehalem2S(),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := machines[rng.Intn(len(machines))]
		n := 1 + rng.Intn(m.CoresPerNode)
		perm := rng.Perm(m.CoresPerNode)
		active := perm[:n]
		bw := FairShare(m, active)
		for _, c := range active {
			if bw[c] >= m.Memory.PerCoreGBs-1e-9 {
				continue // pinned by the per-core cap
			}
			pinned := false
			for _, d := range m.Memory.Domains {
				for _, g := range d.Groups {
					sum, member := 0.0, false
					for _, x := range g {
						sum += bw[x] // inactive cores contribute 0
						if x == c {
							member = true
						}
					}
					if member && sum >= d.CapacityGBs-1e-9 {
						pinned = true
					}
				}
			}
			if !pinned {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFairShareMonotoneDegradation: adding an active core never raises
// anyone's share.
func TestFairShareMonotoneDegradation(t *testing.T) {
	m := topology.FinisTerrae(1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		perm := rng.Perm(16)
		active := perm[:n]
		newcomer := perm[n]
		before := FairShare(m, active)
		after := FairShare(m, append(append([]int{}, active...), newcomer))
		for _, c := range active {
			if after[c] > before[c]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPageAllocatorUniqueFramesProperty: no frame is handed out twice
// while mapped, and freed frames become reusable.
func TestPageAllocatorUniqueFramesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := newOSAllocator(seed, 64, false, 1)
		held := map[int64]bool{}
		var frames []int64
		for i := 0; i < 500; i++ {
			if len(frames) > 0 && (rng.Intn(2) == 0 || len(frames) == 60) {
				// Free a random held frame.
				k := rng.Intn(len(frames))
				o.freePage(frames[k])
				delete(held, frames[k])
				frames = append(frames[:k], frames[k+1:]...)
				continue
			}
			p := o.allocPage(1, int64(i))
			if held[p] || p < 0 || p >= 64 {
				return false
			}
			held[p] = true
			frames = append(frames, p)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// allocSpaces allocates pages 0..pages-1 of each space in turn, in the
// order given, on a fresh allocator, and returns the frame of each
// (space, vpage) slot.
func allocSpaces(seed, frames int64, spaces []int64, pages int64) map[[2]int64]int64 {
	o := newOSAllocator(seed, frames, false, 1)
	got := map[[2]int64]int64{}
	for _, space := range spaces {
		for v := int64(0); v < pages; v++ {
			got[[2]int64{space, v}] = o.allocPage(space, v)
		}
	}
	return got
}

// TestPageAllocatorStatelessPlacement: frames are a pure function of
// the allocation sequence — a second allocator from the same seed that
// allocates the same slots in the same order draws the same frames —
// and a slot of space 1 whose first candidate frame no other slot
// holds, whichever of spaces 1 and 2 allocates first, takes that frame
// in both orders: its chain meets no taken frame, so the order of an
// unrelated space's allocations cannot move it. A slot whose candidate
// another slot holds retries down its chain, and its frame may then
// depend on the order (TestPageAllocatorCollisionDependsOnOrder).
func TestPageAllocatorStatelessPlacement(t *testing.T) {
	const frames, pages = 1 << 20, 32
	f := func(seed int64) bool {
		a := allocSpaces(seed, frames, []int64{1, 2}, pages)
		b := allocSpaces(seed, frames, []int64{2, 1}, pages)
		if !maps.Equal(a, allocSpaces(seed, frames, []int64{1, 2}, pages)) {
			return false
		}
		checked := 0
		for v := int64(0); v < pages; v++ {
			slot := [2]int64{1, v}
			first := stats.MixBound(frames, seed, 1, v, 0)
			taken := false
			for _, run := range []map[[2]int64]int64{a, b} {
				for s, p := range run {
					taken = taken || s != slot && p == first
				}
			}
			if taken {
				continue
			}
			if a[slot] != first || b[slot] != first {
				return false
			}
			checked++
		}
		return checked > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPageAllocatorCollisionDependsOnOrder: when a page of space 1 and
// a page of space 2 draw the same first candidate frame, the one that
// allocates first takes it and the other retries down its chain, so
// their frames depend on the order of the two spaces; repeating either
// order still draws the same frames.
func TestPageAllocatorCollisionDependsOnOrder(t *testing.T) {
	const frames = 64
	seed := int64(0)
	for ; stats.MixBound(frames, seed, 1, 0, 0) != stats.MixBound(frames, seed, 2, 0, 0); seed++ {
		if seed == 1<<16 {
			t.Fatal("no seed below 2^16 makes the two slots collide")
		}
	}
	first := stats.MixBound(frames, seed, 1, 0, 0)
	a := allocSpaces(seed, frames, []int64{1, 2}, 1)
	b := allocSpaces(seed, frames, []int64{2, 1}, 1)
	s1, s2 := [2]int64{1, 0}, [2]int64{2, 0}
	if a[s1] != first || b[s2] != first {
		t.Errorf("seed %d: the first allocation did not take candidate %d: %v, %v", seed, first, a, b)
	}
	if a[s2] == first || b[s1] == first || a[s1] == b[s1] {
		t.Errorf("seed %d: the second allocation did not retry: %v, %v", seed, a, b)
	}
	if !maps.Equal(a, allocSpaces(seed, frames, []int64{1, 2}, 1)) || !maps.Equal(b, allocSpaces(seed, frames, []int64{2, 1}, 1)) {
		t.Errorf("seed %d: repeating an order drew other frames", seed)
	}
}

// TestConcurrentStreamsConserveCost: the sum of per-stream measured
// cycles in a concurrent run equals the total cost of the accesses
// each stream issued (no cost is lost or double-counted by the
// interleaver).
func TestConcurrentStreamsConserveCost(t *testing.T) {
	m := topology.SMTQuad()
	in := NewInstance(m, 3)
	spA, spB := in.NewSpace(), in.NewSpace()
	a := spA.Alloc(64 * topology.KB)
	b := spB.Alloc(64 * topology.KB)
	addrs := func(arr *Array) []int64 {
		var out []int64
		for off := int64(0); off < arr.Bytes; off += 1024 {
			out = append(out, arr.Base+off)
		}
		return out
	}
	stats := RunConcurrent(in, []Stream{
		{Core: 0, Space: spA, Addrs: addrs(a)},
		{Core: 1, Space: spB, Addrs: addrs(b)},
	}, 3)
	for i, st := range stats {
		wantAccesses := int64(2 * 64) // 2 measured passes x 64 addresses
		if st.Accesses != wantAccesses {
			t.Errorf("stream %d: %d accesses, want %d", i, st.Accesses, wantAccesses)
		}
		if st.Cycles < float64(st.Accesses)*3 {
			t.Errorf("stream %d: cost %.0f below the L1-hit floor", i, st.Cycles)
		}
	}
}
