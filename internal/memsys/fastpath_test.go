package memsys

import (
	"math"
	"testing"

	"servet/internal/topology"
)

// Tests pinning the fast paths (flat page tables, strided traversals,
// the pooled interleaver) to the semantics of the per-access reference
// paths, bit for bit.

// RunConcurrent is RunConcurrentInto into a fresh stats buffer.
func RunConcurrent(in *Instance, streams []Stream, passes int) []StreamStats {
	stats := make([]StreamStats, len(streams))
	RunConcurrentInto(in, streams, passes, stats)
	return stats
}

// Cached reports whether the line containing vaddr is present at the
// given cache level (1-based) for the core.
func (in *Instance) Cached(level, core int, sp *Space, vaddr int64) bool {
	in.settle()
	c := in.planFor(core)[level-1].c
	return c.contains(vaddr>>c.lineBits, sp.translate(vaddr)>>c.lineBits)
}

// strided returns one traversal's addresses over the array.
func strided(a *Array, stride int64) []int64 {
	var addrs []int64
	for off := int64(0); off < a.Bytes; off += stride {
		addrs = append(addrs, a.Base+off)
	}
	return addrs
}

// fastpathMachines is every machine model (2 nodes) plus a TLB-modelled
// variant, so the TLB branch of the hot path is covered too.
func fastpathMachines() map[string]*topology.Machine {
	ms := topology.Models(2)
	tm := topology.Dunnington()
	tm.TLBEntries = 16
	tm.TLBMissCycles = 30
	ms["dunnington-tlb"] = tm
	return ms
}

// runConcurrentReference is the historical interleaver: a linear
// min-clock scan (ties to the lowest index) issuing one access at a
// time. RunConcurrentInto must reproduce it exactly.
func runConcurrentReference(in *Instance, streams []Stream, passes int) []StreamStats {
	stats := make([]StreamStats, len(streams))
	if passes < 2 {
		passes = 2
	}
	type state struct {
		clock float64
		pos   int
		pass  int
		done  bool
	}
	st := make([]state, len(streams))
	for i := range streams {
		if len(streams[i].Addrs) == 0 {
			st[i].done = true
		}
	}
	for {
		sel := -1
		for i := range st {
			if st[i].done {
				continue
			}
			if sel < 0 || st[i].clock < st[sel].clock {
				sel = i
			}
		}
		if sel < 0 {
			return stats
		}
		s := &st[sel]
		str := &streams[sel]
		cost := in.Access(str.Core, str.Space, str.Addrs[s.pos])
		s.clock += cost
		if s.pass > 0 {
			stats[sel].Accesses++
			stats[sel].Cycles += cost
		}
		s.pos++
		if s.pos == len(str.Addrs) {
			s.pos = 0
			s.pass++
			if s.pass == passes {
				s.done = true
			}
		}
	}
}

// TestRunConcurrentMatchesReference: RunConcurrentInto must produce
// bit-identical stream stats to the linear-scan reference, for varied
// stream shapes.
func TestRunConcurrentMatchesReference(t *testing.T) {
	m := topology.Dunnington()
	cases := []struct {
		name    string
		nstream int
		bytes   []int64
		passes  int
	}{
		{"two-even", 2, []int64{64 * topology.KB, 64 * topology.KB}, 3},
		{"two-skewed", 2, []int64{16 * topology.KB, 256 * topology.KB}, 3},
		{"four-mixed", 4, []int64{32 * topology.KB, 48 * topology.KB, 64 * topology.KB, 8 * topology.KB}, 2},
		{"single", 1, []int64{128 * topology.KB}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*Instance, []Stream) {
				in := NewInstanceAt(m, 1, 3)
				streams := make([]Stream, tc.nstream)
				for i := range streams {
					sp := in.NewSpace()
					arr := sp.Alloc(tc.bytes[i])
					streams[i] = Stream{Core: i, Space: sp, Addrs: strided(arr, 1*topology.KB)}
				}
				return in, streams
			}
			inRef, strRef := build()
			inHeap, strHeap := build()
			want := runConcurrentReference(inRef, strRef, tc.passes)
			got := RunConcurrent(inHeap, strHeap, tc.passes)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("stream %d: RunConcurrentInto %+v != reference %+v", i, got[i], want[i])
				}
			}
		})
	}

	// On nehalem2s the L1 and L2 are private and the L3 is shared per
	// socket of cores 0-3 and 4-7, so a stream runs alone exactly when
	// no other non-empty stream sits on its socket. alone lists those
	// streams. At the 1 KiB probe stride each is filled, its first
	// measured pass derived and every later one replayed. At a 256-byte
	// stride, which the prefetcher follows, none is filled, so each
	// simulates every pass and replays none.
	nehalem := topology.Nehalem2S()
	for _, tc := range []struct {
		name   string
		cores  []int
		bytes  []int64
		passes int
		alone  []int
	}{
		{"nehalem-cross-socket", []int{0, 4}, []int64{96 * topology.KB, 160 * topology.KB}, 3, []int{0, 1}},
		{"nehalem-same-socket", []int{0, 1}, []int64{96 * topology.KB, 160 * topology.KB}, 3, nil},
		{"nehalem-alone-beside-pair", []int{0, 1, 4}, []int64{64 * topology.KB, 128 * topology.KB, 192 * topology.KB}, 3, []int{2}},
		{"nehalem-one-core", []int{4, 4}, []int64{48 * topology.KB, 96 * topology.KB}, 3, nil},
		{"nehalem-empty-beside-lone", []int{4, 4}, []int64{0, 128 * topology.KB}, 3, []int{1}},
		{"nehalem-cross-socket-2-passes", []int{2, 7}, []int64{128 * topology.KB, 64 * topology.KB}, 2, []int{0, 1}},
		{"nehalem-alone-beside-pair-4-passes", []int{0, 1, 4}, []int64{64 * topology.KB, 128 * topology.KB, 192 * topology.KB}, 4, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, stride := range []int64{256, 1024} {
				build := func() (*Instance, []Stream) {
					in := NewInstanceAt(nehalem, 2, 5)
					streams := make([]Stream, len(tc.cores))
					for i, core := range tc.cores {
						sp := in.NewSpace()
						streams[i] = Stream{Core: core, Space: sp}
						if tc.bytes[i] > 0 {
							streams[i].Addrs = strided(sp.Alloc(tc.bytes[i]), stride)
						}
					}
					return in, streams
				}
				inRef, strRef := build()
				inHeap, strHeap := build()
				want := runConcurrentReference(inRef, strRef, tc.passes)
				got := make([]StreamStats, len(strHeap))
				replayed := RunConcurrentInto(inHeap, strHeap, tc.passes, got).Replayed
				for i := range want {
					if math.Float64bits(got[i].Cycles) != math.Float64bits(want[i].Cycles) || got[i].Accesses != want[i].Accesses {
						t.Fatalf("stride %d, stream %d: RunConcurrentInto %+v != reference %+v", stride, i, got[i], want[i])
					}
				}
				var wantReplayed int64
				for _, i := range tc.alone {
					if stride == 1024 {
						wantReplayed += int64(tc.passes-2) * int64(len(strHeap[i].Addrs))
					}
				}
				if replayed != wantReplayed {
					t.Errorf("stride %d: replayed %d accesses, want %d", stride, replayed, wantReplayed)
				}
				// Both instances end in the same state: one more traversal
				// of every stream costs the same access for access.
				for i := range strRef {
					for k, vaddr := range strRef[i].Addrs {
						if a, b := inHeap.Access(strHeap[i].Core, strHeap[i].Space, strHeap[i].Addrs[k]), inRef.Access(strRef[i].Core, strRef[i].Space, vaddr); a != b {
							t.Fatalf("stride %d, stream %d access %d after the run: %v, reference %v", stride, i, k, a, b)
						}
					}
				}
			}
		})
	}
}

// TestFreeShootsDownTLB: Free must invalidate the freed pages in every
// core's TLB, like a real kernel's shootdown.
func TestFreeShootsDownTLB(t *testing.T) {
	m := topology.Dunnington()
	m.TLBEntries = 16
	m.TLBMissCycles = 30
	in := NewInstance(m, 1)
	sp := in.NewSpace()
	arr := sp.Alloc(4 * m.PageBytes)
	for off := int64(0); off < arr.Bytes; off += m.PageBytes {
		in.Access(0, sp, arr.Base+off)
	}
	first := arr.Base >> in.pageShift
	present := func(vpage int64) bool {
		for _, p := range in.tlbs[0].vpages {
			if p == vpage {
				return true
			}
		}
		return false
	}
	for i := int64(0); i < 4; i++ {
		if !present(first + i) {
			t.Fatalf("page %d not in TLB after touching it", i)
		}
	}
	keep := sp.Alloc(m.PageBytes)
	in.Access(0, sp, keep.Base)
	sp.Free(arr)
	for i := int64(0); i < 4; i++ {
		if present(first + i) {
			t.Errorf("freed page %d survived in the TLB (missing shootdown)", i)
		}
	}
	if !present(keep.Base >> in.pageShift) {
		t.Error("shootdown evicted a live page's translation")
	}
}

// TestFreeDropsTranslationCache: after Free, an access to the freed
// range must fault (panic) instead of being served a stale
// translation.
func TestFreeDropsTranslationCache(t *testing.T) {
	in := NewInstance(topology.Dunnington(), 1)
	sp := in.NewSpace()
	arr := sp.Alloc(64 * topology.KB)
	in.Access(0, sp, arr.Base) // the page is translated and in the caches
	sp.Free(arr)
	defer func() {
		if recover() == nil {
			t.Fatal("access to a freed address did not panic; stale translation served")
		}
	}()
	in.Access(0, sp, arr.Base)
}

func TestDoubleFreePanics(t *testing.T) {
	in := NewInstance(topology.Dunnington(), 1)
	sp := in.NewSpace()
	arr := sp.Alloc(16 * topology.KB)
	sp.Free(arr)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	sp.Free(arr)
}

// TestTranslateManyRegions exercises the region binary search: many
// allocations, holes from frees, guard pages, and out-of-order lookups.
func TestTranslateManyRegions(t *testing.T) {
	in := NewInstance(topology.Dunnington(), 1)
	sp := in.NewSpace()
	var arrs []*Array
	for i := 0; i < 32; i++ {
		arrs = append(arrs, sp.Alloc(int64(i%5+1)*in.m.PageBytes))
	}
	// Punch holes.
	for i := 1; i < 32; i += 3 {
		sp.Free(arrs[i])
	}
	for i, a := range arrs {
		freed := i%3 == 1
		if sp.mapped(a.Base) == freed {
			t.Fatalf("array %d: mapped=%v, want %v", i, !freed, !freed)
		}
		if freed {
			continue
		}
		// Every page translates consistently: same page offset, frame
		// from this page's table entry.
		for off := int64(0); off < a.Bytes; off += in.m.PageBytes {
			v := a.Base + off + 17
			p := sp.translate(v)
			if p&in.pageMask != v&in.pageMask {
				t.Fatalf("array %d: page offset not preserved: %#x -> %#x", i, v, p)
			}
		}
		// Guard page after the array is unmapped.
		if sp.mapped(a.Base + (a.Bytes+in.pageMask)&^in.pageMask) {
			t.Fatalf("array %d: guard page is mapped", i)
		}
	}
}

// TestAccessHotPathAllocFree: after warm-up, Access, AccessStrideAccum
// and the translate dense path must not allocate — including immediately after
// ResetCaches, whose point is retaining capacity.
func TestAccessHotPathAllocFree(t *testing.T) {
	m := topology.Dunnington()
	m.TLBEntries = 16
	m.TLBMissCycles = 30
	in := NewInstance(m, 1)
	sp := in.NewSpace()
	arr := sp.Alloc(1 * topology.MB)
	addrs := strided(arr, 192)
	var sum float64
	run := func() { in.AccessStrideAccum(0, sp, arr.Base, arr.Bytes, 192, &sum, nil) }
	run() // warm: grow caches, fault pages
	if a := testing.AllocsPerRun(10, func() {
		for _, v := range addrs {
			in.Access(0, sp, v)
		}
	}); a != 0 {
		t.Errorf("Access loop allocated %.1f times per run; want 0", a)
	}
	if a := testing.AllocsPerRun(10, run); a != 0 {
		t.Errorf("AccessStrideAccum allocated %.1f times per run; want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() {
		in.ResetCaches()
		run()
	}); a != 0 {
		t.Errorf("ResetCaches+AccessStrideAccum allocated %.1f times per run; want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() {
		for _, v := range addrs {
			sp.translate(v)
		}
	}); a != 0 {
		t.Errorf("dense translate allocated %.1f times per run; want 0", a)
	}
}

// TestAccessStrideAccumMatchesAccessLoop: the slice-free strided
// traversal must accumulate exactly like the per-access loop.
func TestAccessStrideAccumMatchesAccessLoop(t *testing.T) {
	m := topology.Dunnington()
	inA := NewInstanceAt(m, 1)
	inB := NewInstanceAt(m, 1)
	spA, spB := inA.NewSpace(), inB.NewSpace()
	arrA := spA.Alloc(100*topology.KB + 37) // odd size: last stride is partial
	spB.Alloc(100*topology.KB + 37)
	const stride = 192
	wantA, wantB := 0.25, 0.5
	gotA, gotB := 0.25, 0.5
	for pass := 0; pass < 2; pass++ {
		for off := int64(0); off < arrA.Bytes; off += stride {
			c := inA.Access(0, spA, arrA.Base+off)
			wantA += c
			if pass > 0 {
				wantB += c
			}
		}
		if pass > 0 {
			inB.AccessStrideAccum(0, spB, arrA.Base, arrA.Bytes, stride, &gotA, &gotB)
		} else {
			inB.AccessStrideAccum(0, spB, arrA.Base, arrA.Bytes, stride, &gotA, nil)
		}
	}
	if gotA != wantA || gotB != wantB {
		t.Fatalf("AccessStrideAccum = (%v, %v), Access loop = (%v, %v)", gotA, gotB, wantA, wantB)
	}
}
