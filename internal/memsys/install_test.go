package memsys

import (
	"fmt"
	"slices"
	"testing"

	"servet/internal/stats"
	"servet/internal/topology"
)

// installWalkPerAccess is a one-walk install written out with, when sc
// is non-nil, a record of what each append found: the sets the walk
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

// TestInstallWalkMatchesPerAccess: install of a one-walk run leaves
// every cache on the plan exactly as the recording reference does,
// visiting every (access, level) pair, and countWalk, which installs
// nothing and
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
// a fill with no measured pass, which counts nothing. Runs of two walks
// (installRunCases) leave the caches as issuing their accesses in the
// run's order does.
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
				in.install(run{walks: []levelWalk{{walk: walk{sp: sp, base: base, bytes: tc.n * tc.stride, stride: tc.stride}, plan: plan}}})
				return in, sc, in.installVisits
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
	for _, tc := range installRunCases() {
		t.Run(tc.name, func(t *testing.T) {
			inWant, want := tc.build()
			issueForward(inWant, want)
			inGot, got := tc.build()
			inGot.install(got)
			sGot, sWant := stateOf(inGot), stateOf(inWant)
			if !slices.Equal(sGot.caches, sWant.caches) || sGot.cores != sWant.cores {
				t.Fatal("cache state differs from issuing the run's accesses in order")
			}
			var all int64
			for _, w := range got.walks {
				all += w.accesses() * int64(len(w.plan))
			}
			if inGot.installVisits != all {
				t.Errorf("visited %d of %d (access, level) pairs", inGot.installVisits, all)
			}
		})
	}
}

// installRunCase is a run of two walks on the two cores of
// pairMachine, built on a fresh instance.
type installRunCase struct {
	name  string
	build func() (*Instance, run)
}

// pairMachine is a two-core machine with 4 KiB pages and 64-byte
// lines: a private 16-set, 2-way L1 per core and a 32-set, 4-way L2
// both cores share.
func pairMachine() *topology.Machine {
	m := installMachine("pair",
		installLevel(16, 2, topology.PhysicallyIndexed),
		installLevel(32, 4, topology.PhysicallyIndexed))
	m.CoresPerNode = 2
	m.Caches[0].Groups = topology.PrivateGroups(2)
	m.Caches[1].Groups = [][]int{{0, 1}}
	return m
}

// installRunCases are runs of two walks, each walk in its own space
// and over several pages, whose lines overflow some sets of every level
// and fit in others: walks interleaved in a mixed order, the first over
// its core's whole plan and the second over the shared L2 alone; the
// same with the second walk stopped early, as a coupled warm-up that
// ends before the stream does; and a stacked pair, both walks over the
// shared L2 alone.
func installRunCases() []installRunCase {
	// build allocates arrays of n0 and n1 accesses at the given strides,
	// keeps the first k1 accesses of the second walk, and interleaves the
	// walks in the order a hash of the access index picks, the walk that
	// still has accesses taking the rest.
	build := func(n0, n1, k1, stride0, stride1 int64, skip0, skip1 int) func() (*Instance, run) {
		return func() (*Instance, run) {
			in := NewInstanceAt(pairMachine(), 3)
			var r run
			for k, spec := range [][3]int64{{n0, n0, stride0}, {n1, k1, stride1}} {
				sp := in.NewSpace()
				a := sp.Alloc(spec[0] * spec[2])
				plan := in.planFor(k)[[]int{skip0, skip1}[k]:]
				r.walks = append(r.walks, levelWalk{walk: walk{sp: sp, base: a.Base + 64, bytes: spec[1] * spec[2], stride: spec[2]}, plan: plan})
			}
			left := [2]int64{n0, k1}
			for i := uint64(0); left[0]+left[1] > 0; i++ {
				k := int(stats.Mix64(i) & 1)
				if left[k] == 0 {
					k = 1 - k
				}
				left[k]--
				r.order = append(r.order, uint8(k))
			}
			return in, r
		}
	}
	return []installRunCase{
		{"run: private and shared levels, interleaved", build(300, 200, 200, 64, 192, 0, 1)},
		{"run: second walk stopped early", build(300, 200, 77, 192, 64, 0, 1)},
		{"run: stacked pair over the shared level", build(150, 170, 170, 128, 320, 1, 1)},
	}
}

// issueForward is the reference for install: it issues the run's
// accesses in order, looking each one's line up at every level of its
// walk as an access that misses there does.
func issueForward(in *Instance, r run) {
	pos := make([]int64, len(r.walks))
	for _, k := range r.order {
		w := &r.walks[k]
		vaddr := w.base + pos[k]*w.stride
		pos[k]++
		paddr := w.sp.translate(vaddr)
		for _, pl := range w.plan {
			pl.c.access(vaddr>>pl.c.lineBits, paddr>>pl.c.lineBits)
		}
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
