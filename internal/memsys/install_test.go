package memsys

import (
	"fmt"
	"slices"
	"testing"

	"servet/internal/topology"
)

// installWalkPerAccess is installWalk written out with, when sc is
// non-nil, a record of what each append found: the sets the walk
// touches and the ones it overflows, the facts countWalk must count
// without installing.
func (in *Instance) installWalkPerAccess(plan []planLevel, sp *Space, base, stride, n int64, sc *setCounts) {
	occupy(plan)
	shift, mask := in.pageShift, in.pageMask
	curVpage, pbase := int64(-1), int64(0)
	for i := n - 1; i >= 0; i-- {
		vaddr := base + i*stride
		if vpage := vaddr >> shift; vpage != curVpage {
			pbase = sp.translate(vaddr) &^ mask
			curVpage = vpage
		}
		paddr := pbase + vaddr&mask
		for j := range plan {
			c := plan[j].c
			pLine := paddr >> c.lineBits
			idx := c.setIndex(vaddr>>c.lineBits, pLine)
			if k := c.appendLRU(idx, pLine); sc != nil {
				switch k {
				case 0:
					sc.touched[j] = append(sc.touched[j], int32(idx))
				case c.assoc:
					sc.sets[j][idx] = setFull
				}
			}
		}
	}
}

// installMachine is a one-core machine with 4 KiB pages and the given
// levels, each of 64-byte lines.
func installMachine(name string, levels ...topology.CacheLevel) *topology.Machine {
	for i := range levels {
		levels[i].Level, levels[i].LineBytes = i+1, 64
		levels[i].LatencyCycles = float64(4 * (i + 1))
		levels[i].Groups = topology.PrivateGroups(1)
	}
	return &topology.Machine{
		Name: name, ClockGHz: 1, Nodes: 1, CoresPerNode: 1,
		PageBytes: 4 * topology.KB, PhysPagesPerNode: 1 << 16,
		Memory: topology.Memory{LatencyCycles: 100, PerCoreGBs: 1},
		Caches: levels,
	}
}

// installLevel is a cache level of sets sets of assoc 64-byte lines.
func installLevel(sets int64, assoc int, indexing topology.Indexing) topology.CacheLevel {
	return topology.CacheLevel{SizeBytes: sets * int64(assoc) * 64, Assoc: assoc, Indexing: indexing}
}

// TestInstallWalkMatchesPerAccess: installWalk leaves every cache on
// the plan exactly as the recording reference does, visiting every
// (access, level) pair, and countWalk, which installs nothing and
// counts complete pages per color where it can, counts what that
// install leaves:
// at every level the same touched sets and setFull marks, and for each
// set a count above assoc exactly when it is marked full and equal to
// the set's installed length otherwise. The walks have first and last
// pages that are partial, strides that divide the page, equal it, are
// a multiple of it or neither (every level then counted access by
// access), levels whose sets span less than a page, athlon's
// virtually indexed L1 spanning eight pages, nehalem2s's 128-color L3
// over 8,000 pages and a non-power-of-two set count; a nil-sc case is
// a fill with no measured pass, which counts nothing.
func TestInstallWalkMatchesPerAccess(t *testing.T) {
	nehalem := topology.Nehalem2S()
	subPage := installMachine("sub-page sets",
		installLevel(16, 4, topology.VirtuallyIndexed),
		installLevel(32, 2, topology.PhysicallyIndexed))
	nonPow2 := installMachine("192 sets",
		installLevel(64, 8, topology.VirtuallyIndexed),
		installLevel(192, 8, topology.PhysicallyIndexed))
	const page = 4 * topology.KB
	for _, tc := range []struct {
		name              string
		m                 *topology.Machine
		offset, stride, n int64
		nilSC             bool
	}{
		{name: "nehalem2s aligned", m: nehalem, stride: 1024, n: 4 * 160},
		{name: "nehalem2s partial pages", m: nehalem, offset: 1000, stride: 1024, n: 4*160 + 2},
		{name: "nehalem2s partial pages, nil sc", m: nehalem, offset: 3 * 1024, stride: 1024, n: 4*80 + 3, nilSC: true},
		{name: "nehalem2s stride 64", m: nehalem, offset: 192, stride: 64, n: 64*12 - 5},
		{name: "nehalem2s stride = page", m: nehalem, offset: 512, stride: page, n: 100},
		{name: "nehalem2s stride 2 pages", m: nehalem, offset: 64, stride: 2 * page, n: 80},
		{name: "nehalem2s stride 1.5 KiB", m: nehalem, offset: 128, stride: 1536, n: 400},
		{name: "nehalem2s stride 3 pages + 1 KiB", m: nehalem, stride: 3*page + 1024, n: 60},
		{name: "nehalem2s one page", m: nehalem, offset: 256, stride: 1024, n: 3},
		{name: "nehalem2s past 17 pages of L3 colors", m: nehalem, offset: 1000, stride: 1024, n: 4*8000 + 1},
		{name: "athlon3200 virtual L1 over 8 pages", m: topology.Athlon3200(), stride: 1024, n: 4 * 200},
		{name: "athlon3200 partial pages", m: topology.Athlon3200(), offset: 2048, stride: 1024, n: 4*200 + 1},
		{name: "sub-page sets", m: subPage, stride: 256, n: 16 * 12},
		{name: "sub-page sets, partial pages", m: subPage, offset: 768, stride: 256, n: 16*12 + 7},
		{name: "sub-page sets, nil sc", m: subPage, offset: 768, stride: 512, n: 8 * 12, nilSC: true},
		{name: "192 sets", m: nonPow2, stride: 1024, n: 4 * 40},
		{name: "192 sets, partial pages", m: nonPow2, offset: 3000, stride: 1024, n: 4*40 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(reference bool) (*Instance, *setCounts, int64) {
				in := NewInstanceAt(tc.m, 7)
				sp := in.NewSpace()
				a := sp.Alloc(tc.offset + (tc.n-1)*tc.stride + 1)
				base := a.Base + tc.offset
				plan := in.planFor(0)
				sc := new(setCounts)
				sc.reset(plan, base, tc.stride)
				visits := tc.n * int64(len(plan))
				if reference {
					in.installWalkPerAccess(plan, sp, base, tc.stride, tc.n, sc)
					return in, sc, visits
				}
				if !tc.nilSC {
					frames := sp.frames(base>>in.pageShift, (base+(tc.n-1)*tc.stride)>>in.pageShift)
					in.countWalk(plan, frames, base, tc.stride, tc.n, sc)
				}
				return in, sc, in.installWalk(plan, sp, base, tc.stride, tc.n)
			}
			inWant, wantSC, all := run(true)
			inGot, gotSC, visits := run(false)
			got, want := stateOf(inGot), stateOf(inWant)
			if !slices.Equal(got.caches, want.caches) || got.cores != want.cores {
				t.Fatal("cache state differs from the per-access install")
			}
			if !tc.nilSC {
				for j, pl := range inGot.planFor(0) {
					if !slices.Equal(gotSC.sets[j], wantSC.sets[j]) {
						t.Errorf("level %d: setFull marks differ from the per-access install's", j)
					}
					if g, w := slices.Sorted(slices.Values(gotSC.touched[j])), slices.Sorted(slices.Values(wantSC.touched[j])); !slices.Equal(g, w) {
						t.Errorf("level %d: touched %v, per-access install %v", j, g, w)
					}
					c := pl.c
					for s, k := range gotSC.lines[j] {
						if full := int64(k) > c.assoc; full != (gotSC.sets[j][s] == setFull) || int64(k) > c.assoc+1 || !full && k != c.lens[s] {
							t.Fatalf("level %d set %d: counted %d lines, installed %d of %d ways, marked %d", j, s, k, c.lens[s], c.assoc, gotSC.sets[j][s])
						}
					}
				}
			}
			if visits != all {
				t.Errorf("visited %d of %d (access, level) pairs", visits, all)
			}
		})
	}
}

// TestObserveWalkMatchesObserve: for a stride beyond the prefetcher,
// observeWalk leaves it as n calls of observe over the walk do, for n =
// 0, 1, 2 and many, from a reset prefetcher, a primed one, a primed one
// whose stored stride already is the walk's and one in a stream it
// follows, for strides up and down; a prefetcher with maxStride 0 is
// left as it was.
func TestObserveWalkMatchesObserve(t *testing.T) {
	const shift = 12
	starts := map[string]prefetcher{
		"reset":           {maxStride: 512},
		"primed":          {maxStride: 512, last: 1 << 20, stride: 64, streak: 1, primed: true},
		"primed, same":    {maxStride: 512, last: 1<<21 - 1024, stride: 1024, streak: 0, primed: true},
		"in a stream":     {maxStride: 512, last: 1<<21 - 256, stride: 256, streak: 5, primed: true},
		"off":             {maxStride: 0, last: 77, stride: 3, streak: 2, primed: true},
		"off, never seen": {},
	}
	for _, name := range []string{"reset", "primed", "primed, same", "in a stream", "off", "off, never seen"} {
		for _, stride := range []int64{1024, -1024, 4096} {
			for _, n := range []int64{0, 1, 2, 3, 1000} {
				base := int64(1 << 21)
				want, got := starts[name], starts[name]
				for i := range n {
					want.observe(base+i*stride, shift)
				}
				got.observeWalk(base, stride, n, shift)
				if got != want {
					t.Errorf("%s, stride %d, n %d: observeWalk left %s, observe %s", name, stride, n, fmt.Sprint(got), fmt.Sprint(want))
				}
			}
		}
	}
}
