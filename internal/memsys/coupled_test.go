package memsys

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"servet/internal/topology"
)

// warmPrefix is where an interleaver stands at the first access of any
// measured pass: how many accesses it issued, and each stream's clock
// and cursor — the accesses it issued, all of them once its warm-up is
// done.
type warmPrefix struct {
	n      int64
	clocks []float64
	pos    []int
}

// referenceWarmPrefix runs the linear-scan reference interleaver on in
// as far as the first access of any measured pass: the part of a cold
// coupled run fillCoupled fills.
func referenceWarmPrefix(in *Instance, streams []Stream) warmPrefix {
	w := warmPrefix{clocks: make([]float64, len(streams)), pos: make([]int, len(streams))}
	for {
		sel := -1
		for i := range streams {
			if len(streams[i].Addrs) > 0 && (sel < 0 || w.clocks[i] < w.clocks[sel]) {
				sel = i
			}
		}
		if sel < 0 || w.pos[sel] == len(streams[sel].Addrs) {
			return w
		}
		str := &streams[sel]
		w.clocks[sel] += in.Access(str.Core, str.Space, str.Addrs[w.pos[sel]])
		w.pos[sel]++
		w.n++
	}
}

// coupledWarmPrefix sets the coupled streams up as RunConcurrentInto
// does and runs fillCoupled alone, returning where it left the
// interleaver.
func coupledWarmPrefix(in *Instance, streams []Stream) warmPrefix {
	st, idx := in.rc.grab(len(streams))
	for i := range streams {
		st[i].w = constantStride(streams[i].Space, streams[i].Addrs)
		if len(streams[i].Addrs) > 0 && in.coupled(streams, i) {
			idx = append(idx, int32(i))
		}
	}
	fill, warm := in.fillCoupled(streams, idx, st, new([]uint8))
	w := warmPrefix{n: fill.Filled, clocks: make([]float64, len(streams)), pos: make([]int, len(streams))}
	if w.n > 0 {
		in.install(warm)
	}
	for i, s := range st {
		w.clocks[i] = s.clock
		w.pos[i] = s.pos + s.pass*len(streams[i].Addrs)
	}
	return w
}

// assertFillMatchesPrefix checks that fillCoupled on inFill left the
// interleaver and the memory system — every TLB, prefetcher and
// translation entry, and every cache a stream does not skip — exactly
// where the reference interleaver's warm prefix left inRef. The caches
// at the plan levels a stream skips already hold the run's end state,
// which the end-state comparisons against runConcurrentReference
// check.
func assertFillMatchesPrefix(t *testing.T, label string, inFill *Instance, streams []Stream, fill warmPrefix, inRef *Instance, ref warmPrefix) {
	t.Helper()
	if fill.n != ref.n || !slices.Equal(fill.pos, ref.pos) {
		t.Fatalf("%s: filled %d accesses, cursors %v; the reference issued %d before the first measured one, cursors %v",
			label, fill.n, fill.pos, ref.n, ref.pos)
	}
	for i := range ref.clocks {
		if math.Float64bits(fill.clocks[i]) != math.Float64bits(ref.clocks[i]) {
			t.Fatalf("%s: stream %d clock %v after the fill, reference %v", label, i, fill.clocks[i], ref.clocks[i])
		}
	}
	skipped := map[*cache]bool{}
	for i, str := range streams {
		for _, pl := range inFill.planFor(str.Core)[:inFill.rc.skips[i]] {
			skipped[pl.c] = true
		}
	}
	skip := func(li, k int) bool { return skipped[inFill.caches[li][k]] }
	sFill, sRef := stateExcept(inFill, skip), stateExcept(inRef, skip)
	if !slices.Equal(sFill.caches, sRef.caches) || sFill.cores != sRef.cores {
		t.Fatalf("%s: state after the fill differs from the reference's:\n%s\nreference\n%s", label, sFill.cores, sRef.cores)
	}
}

// sharingPairs lists, per cache level of m, every pair of cores one of
// the level's cache instances serves.
func sharingPairs(m *topology.Machine) [][3]int {
	var pairs [][3]int
	for li := range m.Caches {
		for _, g := range m.Caches[li].Groups {
			for x := range g {
				for _, b := range g[x+1:] {
					pairs = append(pairs, [3]int{li, g[x], b})
				}
			}
		}
	}
	return pairs
}

// skipsOf returns how many plan levels RunConcurrentInto skipped for
// each of the streams of its last run on in.
func skipsOf(in *Instance, streams int) []int {
	skips := make([]int, streams)
	for i := range skips {
		skips[i] = in.rc.skips[i]
	}
	return skips
}

// overflowsAboveLast reports whether the stream's walk, whose lines
// are distinct, maps more lines than a set holds to every set it
// touches at each level of its core's plan but the last.
func overflowsAboveLast(in *Instance, str Stream) bool {
	plan := in.planFor(str.Core)
	for _, pl := range plan[:len(plan)-1] {
		c := pl.c
		lines := map[int64]int64{}
		for _, v := range str.Addrs {
			lines[c.setIndex(v>>c.lineBits, str.Space.translate(v)>>c.lineBits)]++
		}
		for _, k := range lines {
			if k <= c.assoc {
				return false
			}
		}
	}
	return true
}

// TestCoupledFillMatchesReference: on every topology.Models machine,
// for every pair of cores that shares a cache at some level, two cold
// streams over (2/3)·CS arrays of that level at the 1 KiB probe stride
// — the Fig. 5 measurement — are filled as far as the first measured
// access: fillCoupled issues the reference interleaver's warm prefix
// and leaves the clocks, cursors and memory system where the prefix
// does. RunConcurrentInto's statistics and end state then equal the
// reference interleaver's bit for bit. Each stream skips the private
// levels its walk overflows: L1 and L2 of a nehalem2s pair sharing the
// L3, L1 of a dunnington pair sharing an L2, none of an smt-quad pair
// sharing an L1; no stream skips more than its private levels.
// runStacked finishes exactly the runs of the pairs that share the last
// level alone — the nehalem2s same-socket pairs, dunnington's L3-only
// pairs and smt-quad's L2-only pairs — whose walks overflow every set
// they touch at every level above it.
func TestCoupledFillMatchesReference(t *testing.T) {
	const stride, passes = 1024, 3
	wantSkips := map[string]int{"nehalem2s L3": 2, "dunnington L2": 1, "smt-quad L1": 0}
	models := topology.Models(2)
	for _, name := range slices.Sorted(maps.Keys(models)) {
		m := models[name]
		for _, p := range sharingPairs(m) {
			li, a, b := p[0], p[1], p[2]
			ab := m.Caches[li].SizeBytes * 2 / 3
			ab -= ab % stride
			build := func() (*Instance, []Stream) {
				in := NewInstanceAt(m, 1, int64(li), int64(a), int64(b))
				streams := make([]Stream, 2)
				for i, core := range []int{a, b} {
					sp := in.NewSpace()
					streams[i] = Stream{Core: core, Space: sp, Addrs: strided(sp.Alloc(ab), stride)}
				}
				return in, streams
			}
			label := fmt.Sprintf("%s L%d pair (%d, %d)", name, li+1, a, b)
			inRef, strRef := build()
			want := runConcurrentReference(inRef, strRef, passes)
			inRun, strRun := build()
			got := make([]StreamStats, 2)
			counts := RunConcurrentInto(inRun, strRun, passes, got)
			for i := range want {
				if math.Float64bits(got[i].Cycles) != math.Float64bits(want[i].Cycles) || got[i].Accesses != want[i].Accesses {
					t.Fatalf("%s stream %d: RunConcurrentInto %+v, reference %+v", label, i, got[i], want[i])
				}
			}
			sRef, sRun := stateOf(inRef), stateOf(inRun)
			if !slices.Equal(sRun.caches, sRef.caches) || sRun.cores != sRef.cores {
				t.Fatalf("%s: end state differs from the reference's:\n%s\nreference\n%s", label, sRun.cores, sRef.cores)
			}
			inPre, strPre := build()
			ref := referenceWarmPrefix(inPre, strPre)
			inFill, strFill := build()
			assertFillMatchesPrefix(t, label, inFill, strFill, coupledWarmPrefix(inFill, strFill), inPre, ref)
			if counts.Filled != ref.n {
				t.Errorf("%s: RunConcurrentInto filled %d accesses, want %d", label, counts.Filled, ref.n)
			}
			private := 0
			for private < len(m.Caches) && m.Caches[private].CacheInstance(a) != m.Caches[private].CacheInstance(b) {
				private++
			}
			stacks := private == len(m.Caches)-1 && overflowsAboveLast(inRun, strRun[0]) && overflowsAboveLast(inRun, strRun[1])
			if counts.Stacked > 0 != stacks {
				t.Errorf("%s: stacked %d accesses; want runStacked to finish the run: %v", label, counts.Stacked, stacks)
			}
			for i, skip := range skipsOf(inRun, 2) {
				if w, ok := wantSkips[fmt.Sprintf("%s L%d", name, li+1)]; (ok && skip != w) || skip > private {
					t.Errorf("%s stream %d: skipped %d plan levels, want %d of the %d private ones", label, i, skip, w, private)
				}
			}
		}
	}
}

// coupledSeed is a FuzzRunConcurrentMatchesReference seed of cold
// coupled streams: a machine shape, a concurrentStreams spec, whether
// fillCoupled fills the run or must decline it, how many plan levels
// RunConcurrentInto skips for each stream, and whether runStacked
// finishes the filled run.
type coupledSeed struct {
	name   string
	shape  []byte
	spec   []byte
	fills  bool
	skips  []int
	stacks bool
}

// coupledSeeds are cold coupled streams at the 1 KiB probe stride that
// fill — a nehalem2s same-socket pair, with and without a TLB that the
// walks overflow, and with that TLB and fractional latencies; a
// dunnington pair sharing an L2 (fuzzMachine numbers a sharing group's
// cores consecutively, so cores 0 and 1 share one) and one sharing
// only the L3, with its L2 cut to 768 KiB for the walks to overflow;
// unequal lengths, over the nehalem2s L3 and over one cut to 2 MiB, of
// whose sets the two walks together overflow some and fit in others,
// so that the cost of the longer walk's warm-up moves the interleaving
// the shorter one's measured passes see; two-access walks over a
// direct-mapped one-set private L1 that two lines overflow; three and
// four streams; a nehalem2s pair too short to overflow its private L2
// and one too short to overflow its L1 — and runs that must decline:
// two streams on one core, two streams in one space, a stride the
// prefetcher follows, and a shared cache that already holds a line. A
// declined run skips no level. runStacked finishes exactly the filled
// pairs that skip every level but a shared last one: the L2-sharing
// dunnington pair, like smt-quad's L1 pairs, still interleaves.
func coupledSeeds() []coupledSeed {
	nehalem, dunnington := shapeBytes(topology.Nehalem2S()), shapeBytes(topology.Dunnington())
	tlbNehalem := topology.Nehalem2S()
	tlbNehalem.TLBEntries, tlbNehalem.TLBMissCycles = 16, 30
	smallL3 := topology.Nehalem2S()
	smallL3.Caches[2].SizeBytes = 2 * topology.MB
	smallL2 := topology.Dunnington()
	smallL2.Caches[1].SizeBytes = 768 * topology.KB
	// 2 cores, 4 KiB pages, a 256-byte prefetcher; a private 1-way,
	// 1-set L1 and a shared 4-way, 16-set L2, both of 64-byte lines.
	oneSet := []byte{1, 4, 0, 0, 1, 1, 2, 0, 0, 0, byte(topology.VirtuallyIndexed), 0, 2, 3, 0, 15, byte(topology.PhysicallyIndexed), 1}
	return []coupledSeed{
		{"same socket", nehalem, []byte{1, 0, 7, 255, 63, 0, 0, 1, 7, 255, 63, 0, 0}, true, []int{2, 2}, true},
		{"same socket, 16-entry TLB", shapeBytes(tlbNehalem), []byte{1, 0, 7, 255, 63, 0, 0, 1, 5, 0, 63, 0, 0}, true, []int{2, 2}, true},
		{"same socket, fractional latencies", append(slices.Clip(shapeBytes(tlbNehalem)), 7), []byte{1, 0, 7, 255, 63, 0, 0, 1, 7, 255, 63, 0, 0}, true, []int{2, 2}, true},
		{"sharing an L2", dunnington, []byte{1, 0, 7, 255, 63, 0, 0, 1, 7, 255, 63, 0, 0}, true, []int{1, 1}, false},
		{"sharing only the L3", shapeBytes(smallL2), []byte{1, 0, 7, 255, 63, 0, 0, 2, 7, 255, 63, 0, 0}, true, []int{2, 2}, true},
		{"unequal lengths", nehalem, []byte{1, 0, 7, 255, 63, 0, 0, 1, 2, 187, 63, 0, 0}, true, []int{2, 2}, true},
		{"unequal lengths, 2 MiB L3", shapeBytes(smallL3), []byte{1, 0, 7, 255, 63, 0, 0, 1, 2, 187, 63, 0, 0}, true, []int{2, 2}, true},
		{"two-access walks", oneSet, []byte{1, 0, 0, 1, 63, 0, 0, 1, 0, 1, 63, 0, 0}, true, []int{1, 1}, true},
		{"three streams", nehalem, []byte{2, 0, 3, 255, 63, 0, 0, 1, 5, 0, 63, 0, 0, 2, 1, 0, 63, 0, 0}, true, []int{2, 2, 1}, false},
		{"four streams", dunnington, []byte{3, 0, 3, 255, 63, 0, 0, 1, 5, 0, 63, 0, 0, 2, 1, 0, 63, 0, 0, 3, 7, 0, 63, 0, 0}, true, []int{1, 1, 1, 1}, false},
		{"L2 not overflowed", nehalem, []byte{1, 0, 0, 63, 63, 0, 0, 1, 0, 63, 63, 0, 0}, true, []int{1, 1}, false},
		{"L1 not overflowed", nehalem, []byte{1, 0, 0, 7, 63, 0, 0, 1, 0, 7, 63, 0, 0}, true, []int{0, 0}, false},
		{"same core", nehalem, []byte{1, 4, 3, 255, 63, 0, 0, 4, 1, 0, 63, 0, 0}, false, []int{0, 0}, false},
		{"shared space", nehalem, []byte{1, 0, 3, 255, 63, 0, 0, 1, 1, 0, 63, 8, 0}, false, []int{0, 0}, false},
		{"prefetched stride", nehalem, []byte{1, 0, 3, 255, 31, 0, 0, 1, 1, 0, 31, 0, 0}, false, []int{0, 0}, false},
		{"L3 holds a line", nehalem, []byte{2, 0, 3, 255, 63, 0, 0, 1, 1, 0, 63, 0, 0, 2, 0, 10, 63, 9, 0}, false, []int{0, 0, 0}, false},
	}
}

// TestCoupledSeedsFillOrDecline: each coupledSeeds run is filled or
// declined, skips plan levels and is finished by runStacked or not as
// its seed says — no stream of them runs alone, so a decline fills
// nothing — and matches the reference interleaver. A fill stops where
// the reference's warm prefix does, in the same state.
func TestCoupledSeedsFillOrDecline(t *testing.T) {
	for _, c := range coupledSeeds() {
		m := fuzzMachine(c.shape)
		if c.fills {
			inFill, inPre := NewInstanceAt(m, 6), NewInstanceAt(m, 6)
			strFill := concurrentStreams(inFill, c.spec)
			fill := coupledWarmPrefix(inFill, strFill)
			assertFillMatchesPrefix(t, c.name, inFill, strFill, fill, inPre, referenceWarmPrefix(inPre, concurrentStreams(inPre, c.spec)))
		}
		inRef, inRun := NewInstanceAt(m, 6), NewInstanceAt(m, 6)
		strRef, strRun := concurrentStreams(inRef, c.spec), concurrentStreams(inRun, c.spec)
		want := runConcurrentReference(inRef, strRef, 3)
		got := make([]StreamStats, len(strRun))
		counts := RunConcurrentInto(inRun, strRun, 3, got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: RunConcurrentInto %+v, reference %+v", c.name, got, want)
		}
		if counts.Replayed != 0 || counts.Derived != 0 || (counts.Filled > 0) != c.fills || (counts.Stacked > 0) != c.stacks {
			t.Errorf("%s: counts %+v, want filled accesses %v, stacked accesses %v", c.name, counts, c.fills, c.stacks)
		}
		if skips := skipsOf(inRun, len(strRun)); !slices.Equal(skips, c.skips) {
			t.Errorf("%s: skipped %v plan levels, want %v", c.name, skips, c.skips)
		}
	}
}

// TestCoupledSkipFractionalCosts: with fractional latencies and TLB
// penalty, the order in which a skipped access adds its TLB term and
// the skipped levels' latencies shows in the bits of its cost. A
// nehalem2s same-socket pair over (2/3)·CS of the L3, whose streams
// skip their L1 and L2 and overflow a 16-entry TLB, still equals the
// reference interleaver bit for bit, end state included. Since a long
// sum can absorb a last-bit difference, one more access to the first
// address — a TLB miss that misses the skipped levels — is then issued
// with the stream's skipped levels and must cost what Access charges
// on the reference's instance.
func TestCoupledSkipFractionalCosts(t *testing.T) {
	const stride, passes = 1024, 3
	m := topology.Nehalem2S()
	m.TLBEntries, m.TLBMissCycles = 16, 0.1
	for i, lat := range []float64{0.2, 0.3, 0.7} {
		m.Caches[i].LatencyCycles = lat
	}
	m.Memory.LatencyCycles = 1.1
	ab := m.Caches[2].SizeBytes * 2 / 3
	ab -= ab % stride
	build := func() (*Instance, []Stream) {
		in := NewInstanceAt(m, 1)
		streams := make([]Stream, 2)
		for i := range streams {
			sp := in.NewSpace()
			streams[i] = Stream{Core: i, Space: sp, Addrs: strided(sp.Alloc(ab), stride)}
		}
		return in, streams
	}
	inRef, strRef := build()
	want := runConcurrentReference(inRef, strRef, passes)
	inRun, strRun := build()
	got := make([]StreamStats, 2)
	RunConcurrentInto(inRun, strRun, passes, got)
	if skips := skipsOf(inRun, 2); !slices.Equal(skips, []int{2, 2}) {
		t.Fatalf("skipped %v plan levels, want [2 2]", skips)
	}
	for i := range want {
		if math.Float64bits(got[i].Cycles) != math.Float64bits(want[i].Cycles) || got[i].Accesses != want[i].Accesses {
			t.Fatalf("stream %d: RunConcurrentInto %+v, reference %+v", i, got[i], want[i])
		}
	}
	sRef, sRun := stateOf(inRef), stateOf(inRun)
	if !slices.Equal(sRun.caches, sRef.caches) || sRun.cores != sRef.cores {
		t.Fatalf("end state differs from the reference's:\n%s\nreference\n%s", sRun.cores, sRef.cores)
	}
	s := &strRun[0]
	got0 := inRun.accessOne(inRun.planFor(s.Core), inRun.rc.skips[0], s.Core, s.Space, s.Addrs[0])
	if want0 := inRef.Access(0, strRef[0].Space, strRef[0].Addrs[0]); math.Float64bits(got0) != math.Float64bits(want0) {
		t.Errorf("one more access with L1 and L2 skipped costs %v, Access %v", got0, want0)
	}
}
