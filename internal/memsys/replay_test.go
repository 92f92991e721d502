package memsys

import (
	"math"
	"slices"
	"testing"

	"servet/internal/topology"
)

// strideRun is one strided measurement and what it leaves behind: the
// two accumulators, the accesses AccessStridePasses replayed, filled
// and derived, the per-access costs of the follow-up operation and of
// one further traversal, which differ between two instances whose end
// states differ, and the end state after them.
type strideRun struct {
	total, measured           float64
	replayed, filled, derived int64
	after                     []float64
	state                     endState
}

// runStridePasses measures bytes of an array, starting lead bytes into
// it, on a fresh instance: one access every stride bytes of the lead-in
// first, then the measurement, through AccessStridePasses when replay
// is set and through the plain loop of AccessStrideAccum passes
// otherwise. The follow-up operation op (followNone for none) comes
// next, then a further traversal of the walked bytes.
func runStridePasses(m *topology.Machine, seed int64, core int, lead, bytes, stride int64, passes int, total0 float64, replay bool, op int) strideRun {
	in := NewInstanceAt(m, seed)
	sp := in.NewSpace()
	a := sp.Alloc(lead + bytes)
	for off := int64(0); off < lead; off += stride {
		in.Access(core, sp, a.Base+off)
	}
	base := a.Base + lead
	r := strideRun{total: total0}
	// measure runs the measurement; the counts are the first one's.
	counted := false
	measure := func() {
		if replay {
			c := in.AccessStridePasses(core, sp, base, bytes, stride, passes, &r.total, &r.measured)
			if !counted {
				r.replayed, r.filled, r.derived, counted = c.Replayed, c.Filled, c.Derived, true
			}
			return
		}
		in.AccessStrideAccum(core, sp, base, bytes, stride, &r.total, nil)
		for pass := 1; pass <= passes; pass++ {
			in.AccessStrideAccum(core, sp, base, bytes, stride, &r.total, &r.measured)
		}
	}
	measure()
	switch op {
	case followAccess:
		r.after = append(r.after, in.Access(core, sp, base+(bytes-1)/stride/2*stride))
	case followWalk:
		measure()
	case followRealloc:
		sp.Free(a)
		a = sp.Alloc(lead + bytes)
		base = a.Base + lead
		r.after = append(r.after, in.Access(core, sp, base))
	case followReset:
		in.ResetCaches()
		measure()
	case followTraverse:
		in.AccessStrideAccum(core, sp, base, bytes, stride, &r.total, nil)
	}
	for off := int64(0); off < bytes; off += stride {
		r.after = append(r.after, in.Access(core, sp, base+off))
	}
	r.state = stateOf(in)
	return r
}

// assertReplayMatches checks a replayed run against its simulated twin
// bit for bit, end state included.
func assertReplayMatches(t *testing.T, got, want strideRun) {
	t.Helper()
	if math.Float64bits(got.total) != math.Float64bits(want.total) || math.Float64bits(got.measured) != math.Float64bits(want.measured) {
		t.Fatalf("replayed total/measured %v/%v, simulated %v/%v", got.total, got.measured, want.total, want.measured)
	}
	assertTraceEqual(t, "replay", "further traversal", 0, nil, got.after, want.after)
	if !slices.Equal(got.state.caches, want.state.caches) || got.state.cores != want.state.cores {
		t.Fatalf("end state differs from the simulated one's:\n%s\nsimulated\n%s", got.state.cores, want.state.cores)
	}
}

// FuzzStridePassesMatchSimulated: over machine shapes decoded like
// FuzzResetAtMatchesFresh's, with latencies that may be non-integral,
// strides the prefetcher follows or below a line, a lead-in of up to
// 4080 bytes walked before the measurement, 1 to 4 measured passes and
// any starting total, AccessStridePasses equals the plain pass loop on
// a twin instance bit for bit — whether it fills or simulates the
// warm-up, whether it derives a pass and whether it replays or
// declines — and leaves the same state behind, as the follow-up an
// optional byte after the shape picks (followOp) and a further
// traversal observe it. A lead-in leaves the
// core's caches occupied, so the warm-up fill declines; only a filled
// warm-up is followed by derived passes, whole ones.
func FuzzStridePassesMatchSimulated(f *testing.F) {
	for _, m := range fastpathMachines() {
		f.Add(shapeBytes(m), int64(1), uint16(4095), uint16(1023), uint8(1), int32(0), int8(0), uint8(0), uint8(0))
	}
	nehalem := shapeBytes(topology.Nehalem2S())
	f.Add(nehalem, int64(2), uint16(600), uint16(63), uint8(2), int32(5), int8(0), uint8(0), uint8(0))           // prefetched stride
	f.Add(nehalem, int64(3), uint16(300), uint16(7), uint8(3), int32(0), int8(0), uint8(0), uint8(0))            // sub-line stride
	f.Add(nehalem, int64(4), uint16(4095), uint16(1023), uint8(1), int32(0), int8(0), uint8(77), uint8(0))       // non-integral latency
	f.Add(nehalem, int64(5), uint16(4095), uint16(1023), uint8(2), int32(3), int8(-1), uint8(0), uint8(0))       // non-integral total
	f.Add(nehalem, int64(6), uint16(4095), uint16(1023), uint8(1), int32(1<<30-1), int8(23), uint8(0), uint8(0)) // total near 2^53
	f.Add(nehalem, int64(7), uint16(4095), uint16(1023), uint8(1), int32(1<<30+1), int8(23), uint8(0), uint8(0)) // total past 2^53
	f.Add(nehalem, int64(8), uint16(4095), uint16(1023), uint8(1), int32(0), int8(0), uint8(0), uint8(64))       // lead-in: one line
	f.Add(nehalem, int64(9), uint16(4095), uint16(1023), uint8(2), int32(0), int8(0), uint8(33), uint8(3))       // lead-in, unaligned base
	// An L1 indexed by virtual bits past the page does not nest in the
	// physically indexed L2; one stride over the L1, some of its sets
	// overflow and the pass declines.
	f.Add(shapeBytes(topology.Athlon3200()), int64(10), uint16(4160), uint16(1023), uint8(2), int32(0), int8(0), uint8(0), uint8(0))
	// A 192-set L2, which the 64-set L1 nests in by the set count's
	// modulus; the 17-access walk overflows one L1 set and fits in three.
	nonPow2 := []byte{0, 4, 2, 7, 0, 1, 2, 3, 0, 63, byte(topology.VirtuallyIndexed), 0, 2, 7, 0, 191, byte(topology.PhysicallyIndexed), 0}
	f.Add(nonPow2, int64(11), uint16(1080), uint16(1023), uint8(2), int32(0), int8(0), uint8(0), uint8(0))
	// 33 accesses: one nehalem2s L1 set overflows, three fit, and the
	// lines of the one that overflows go on to the L2 sets nested in it.
	f.Add(nehalem, int64(12), uint16(2080), uint16(1023), uint8(3), int32(0), int8(0), uint8(0), uint8(0))
	// Per-page counts: a partial last page; strides of two pages and of
	// 1.5 KiB, which countWalk counts access by access; athlon's
	// virtually indexed L1 and the 192-set L2 over enough pages that
	// their sets overflow; and an L1 whose sets span a quarter page,
	// several offsets of a page sharing each set.
	f.Add(nehalem, int64(13), uint16(4150), uint16(1023), uint8(2), int32(0), int8(0), uint8(0), uint8(0))
	f.Add(nehalem, int64(14), uint16(65535), uint16(8191), uint8(2), int32(0), int8(0), uint8(0), uint8(0))
	f.Add(nehalem, int64(15), uint16(65535), uint16(1535), uint8(2), int32(0), int8(0), uint8(0), uint8(0))
	f.Add(shapeBytes(topology.Athlon3200()), int64(16), uint16(65535), uint16(1023), uint8(2), int32(0), int8(0), uint8(0), uint8(0))
	f.Add(nonPow2, int64(17), uint16(20000), uint16(1023), uint8(2), int32(0), int8(0), uint8(0), uint8(0))
	subPage := shapeBytes(installMachine("sub-page sets",
		installLevel(16, 4, topology.VirtuallyIndexed),
		installLevel(64, 2, topology.PhysicallyIndexed)))
	f.Add(subPage, int64(18), uint16(3500), uint16(255), uint8(2), int32(0), int8(0), uint8(0), uint8(0))
	// Follow-ups after a filled, derived and replayed walk over all
	// three nehalem2s levels, whose end state is still pending: the
	// shape's bytes after its frac byte pick one. A load or a traversal
	// must install it before it looks a line up, and a free before it
	// unmaps the frames the install translates; a second measurement
	// installs it and then simulates, and a reset drops it.
	for op := range byte(5) {
		f.Add(append(slices.Clip(nehalem), 0, op), int64(19), uint16(40000), uint16(1023), uint8(2), int32(0), int8(0), uint8(0), uint8(0))
	}
	f.Fuzz(func(t *testing.T, shape []byte, seed int64, lines, stride uint16, passes uint8, start int32, exp int8, frac, lead uint8) {
		m, rest := decodeMachine(shape)
		op := followOp(rest)
		// A non-zero frac adds frac/100 cycles to one level's latency,
		// or to the memory latency: mostly a fraction float64 cannot
		// represent, so sums of such costs round.
		if frac != 0 {
			if li := int(frac) % (len(m.Caches) + 1); li < len(m.Caches) {
				m.Caches[li].LatencyCycles += float64(frac) / 100
			} else {
				m.Memory.LatencyCycles += float64(frac) / 100
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded shape %v is invalid: %v", shape, err)
		}
		// Up to 1 MB, in at most 4096 accesses per pass.
		bytes := 1 + int64(lines)*16
		step := max(1+int64(stride), bytes/4096)
		np := 1 + int(passes%4)
		total0 := math.Ldexp(float64(start), int(exp)%40)
		core := int(uint64(seed) % uint64(m.CoresPerNode))
		leadBytes := int64(lead) * 16

		want := runStridePasses(m, seed, core, leadBytes, bytes, step, np, total0, false, op)
		got := runStridePasses(m, seed, core, leadBytes, bytes, step, np, total0, true, op)
		assertReplayMatches(t, got, want)
		n := (bytes + step - 1) / step
		if got.replayed < 0 || got.replayed > int64(np-1)*n || got.replayed%n != 0 {
			t.Fatalf("replayed %d accesses of %d passes of %d", got.replayed, np, n)
		}
		if got.filled != 0 && (got.filled != n || leadBytes > 0) {
			t.Fatalf("filled %d accesses of a warm-up of %d after a %d-byte lead-in", got.filled, n, leadBytes)
		}
		if got.derived < 0 || got.derived > int64(np)*n || got.derived%n != 0 || got.derived != 0 && got.filled == 0 {
			t.Fatalf("derived %d accesses of %d passes of %d after filling %d", got.derived, np, n, got.filled)
		}
	})
}

// TestStridePassesDeclineMovedState pins the decline path on two
// traversals whose measured passes cost the same but do not start from
// a fixed point, so equal sums alone would wrongly allow a replay.
// Neither walk is derived — the first is filled but its L2 set is
// reached by some of its lines and not others, the second's lead-in
// leaves its caches occupied — so each simulates every pass, replays
// nothing at 2 or 3 measured passes, and matches simulation bit for
// bit.
func TestStridePassesDeclineMovedState(t *testing.T) {
	level := func(l int, sets, assoc int64, latency float64) topology.CacheLevel {
		return topology.CacheLevel{
			Level: l, SizeBytes: sets * assoc * 16, Assoc: int(assoc), LineBytes: 16,
			LatencyCycles: latency, Indexing: topology.VirtuallyIndexed, Groups: topology.PrivateGroups(1),
		}
	}
	machine := func(caches ...topology.CacheLevel) *topology.Machine {
		return &topology.Machine{
			Name: "decline", ClockGHz: 1, Nodes: 1, CoresPerNode: 1,
			PageBytes: 4096, PhysPagesPerNode: 1 << 10,
			Memory: topology.Memory{LatencyCycles: 100, PerCoreGBs: 1},
			Caches: caches,
		}
	}
	// LRU order: lines B, A, C (0, 1, 2) share the 3-way L2 set. A has
	// a direct-mapped L1 set to itself and hits there from the first
	// measured pass on, while B and C evict each other from theirs and
	// go on to the L2. The warm-up leaves the L2 set as C, A, B; every
	// measured pass touches B then C, which leaves C, B, A.
	lru := machine(level(1, 2, 1, 1), level(2, 1, 3, 10))
	// Prefetcher: a three-access lead-in starts a stream the
	// prefetcher follows. The warm-up continues it and ends with a
	// streak of 7; every measured pass restarts the stream after its
	// wrap-around jump and ends with 4. Each line has a direct-mapped
	// L1 set to itself, so the caches are at a fixed point throughout
	// and only the prefetcher moved.
	pref := machine(level(1, 16, 1, 1))
	pref.PrefetchMaxStrideBytes = 256

	for _, tc := range []struct {
		name        string
		m           *topology.Machine
		lead, bytes int64
	}{
		{"LRU order", lru, 0, 48},
		{"prefetcher", pref, 48, 96},
	} {
		if err := tc.m.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, passes := range []int{2, 3} {
			got := runStridePasses(tc.m, 1, 0, tc.lead, tc.bytes, 16, passes, 0, true, followNone)
			if got.replayed != 0 || got.derived != 0 {
				t.Errorf("%s, %d passes: replayed %d and derived %d accesses, want 0", tc.name, passes, got.replayed, got.derived)
			}
			assertReplayMatches(t, got, runStridePasses(tc.m, 1, 0, tc.lead, tc.bytes, 16, passes, 0, false, followNone))
		}
	}
}

// TestIntegralCostsGate: replay is allowed only on machines whose every
// access costs a non-negative integer below 2^53 — all built-in models.
// A fractional or negative cost component turns it off, a TLB's miss
// penalty only when the machine models a TLB.
func TestIntegralCostsGate(t *testing.T) {
	for name, m := range fastpathMachines() {
		if !NewInstanceAt(m, 1).exact {
			t.Errorf("%s: replay is off on a built-in model", name)
		}
	}
	for _, tc := range []struct {
		name  string
		edit  func(m *topology.Machine)
		exact bool
	}{
		{"fractional L2 latency", func(m *topology.Machine) { m.Caches[1].LatencyCycles += 0.5 }, false},
		{"fractional memory latency", func(m *topology.Machine) { m.Memory.LatencyCycles += 0.1 }, false},
		{"fractional TLB miss penalty", func(m *topology.Machine) { m.TLBEntries, m.TLBMissCycles = 16, 30.5 }, false},
		{"fractional penalty, no TLB", func(m *topology.Machine) { m.TLBEntries, m.TLBMissCycles = 0, 30.5 }, true},
		{"access cost of 2^53", func(m *topology.Machine) { m.Memory.LatencyCycles = 1 << 53 }, false},
		{"negative L1 latency", func(m *topology.Machine) { m.Caches[0].LatencyCycles = -1 }, false},
	} {
		m := topology.Nehalem2S()
		tc.edit(m)
		if got := NewInstanceAt(m, 1).exact; got != tc.exact {
			t.Errorf("%s: replay allowed = %v, want %v", tc.name, got, tc.exact)
		}
	}
}

// TestStridePassesReplayBuiltinModels: on every built-in model a
// probe-stride traversal reaches its fixed point after the warm-up, so
// all measured passes but the first replay, matching simulation.
func TestStridePassesReplayBuiltinModels(t *testing.T) {
	for name, m := range fastpathMachines() {
		for _, bytes := range []int64{16 * topology.KB, 384 * topology.KB, 3 * topology.MB} {
			got := runStridePasses(m, 1, 0, 0, bytes, 1024, 3, 0, true, followNone)
			if want := 2 * bytes / 1024; got.replayed != want {
				t.Errorf("%s, %d bytes: replayed %d accesses, want %d", name, bytes, got.replayed, want)
			}
			assertReplayMatches(t, got, runStridePasses(m, 1, 0, 0, bytes, 1024, 3, 0, false, followNone))
		}
	}
}

// TestWalkAcrossGuardPage: a walk whose two-page stride jumps the guard
// page from a one-page array into the next array of the same space is
// not one allocation's, so it is not filled, and it matches the
// per-access reference bit for bit, end state included: alone through
// AccessStridePasses, and as both streams of a coupled same-socket
// nehalem2s pair through RunConcurrentInto, whose fill then proves no
// private prefix.
func TestWalkAcrossGuardPage(t *testing.T) {
	m := topology.Nehalem2S()
	page := m.PageBytes
	const n, passes = 40, 3
	stride, bytes := 2*page, 2*n*page
	// bridge allocates the two arrays the walk from the returned base
	// visits: its first access on the first, every later one on the
	// second.
	bridge := func(sp *Space) int64 {
		a := sp.Alloc(page)
		if b := sp.Alloc(bytes - 3*page); b.Base != a.Base+stride {
			t.Fatalf("second array at %#x, want %#x", b.Base, a.Base+stride)
		}
		return a.Base
	}
	t.Run("alone", func(t *testing.T) {
		run := func(replay bool) (r strideRun) {
			in := NewInstanceAt(m, 3)
			sp := in.NewSpace()
			base := bridge(sp)
			if replay {
				r.filled = in.AccessStridePasses(0, sp, base, bytes, stride, passes, &r.total, &r.measured).Filled
			} else {
				in.AccessStrideAccum(0, sp, base, bytes, stride, &r.total, nil)
				for range passes {
					in.AccessStrideAccum(0, sp, base, bytes, stride, &r.total, &r.measured)
				}
			}
			for off := int64(0); off < bytes; off += stride {
				r.after = append(r.after, in.Access(0, sp, base+off))
			}
			r.state = stateOf(in)
			return r
		}
		got, want := run(true), run(false)
		assertReplayMatches(t, got, want)
		if got.filled != 0 {
			t.Errorf("filled %d accesses of a walk across a guard page", got.filled)
		}
	})
	t.Run("coupled pair", func(t *testing.T) {
		build := func() (*Instance, []Stream) {
			in := NewInstanceAt(m, 3)
			streams := make([]Stream, 2)
			for i := range streams {
				sp := in.NewSpace()
				base := bridge(sp)
				streams[i] = Stream{Core: i, Space: sp}
				for off := int64(0); off < bytes; off += stride {
					streams[i].Addrs = append(streams[i].Addrs, base+off)
				}
			}
			return in, streams
		}
		inRef, strRef := build()
		inGot, strGot := build()
		want := runConcurrentReference(inRef, strRef, passes)
		got := make([]StreamStats, len(strGot))
		filled := RunConcurrentInto(inGot, strGot, passes, got).Filled
		for i := range want {
			if math.Float64bits(got[i].Cycles) != math.Float64bits(want[i].Cycles) || got[i].Accesses != want[i].Accesses {
				t.Fatalf("stream %d: RunConcurrentInto %+v != reference %+v", i, got[i], want[i])
			}
		}
		if filled == 0 || !slices.Equal(skipsOf(inGot, 2), []int{0, 0}) {
			t.Errorf("filled %d accesses, skipped levels %v; want a fill with no private prefix", filled, skipsOf(inGot, 2))
		}
		if g, w := stateOf(inGot), stateOf(inRef); !slices.Equal(g.caches, w.caches) || g.cores != w.cores {
			t.Fatal("end state differs from the reference's")
		}
	})
}

// TestSettledVisitsReachNextMeasurement: install visits are counted on
// the instance, so a settle no measurement performs still reaches the
// ledger. A filled nehalem2s walk of n accesses leaves its three levels
// pending and reports no visit; Space.Free of an unrelated array
// settles it, and the next AccessStridePasses reports those n·3 visits.
// That measurement's own walk, on another core's empty caches, is left
// pending again and settled by an Access, whose visits the next
// RunConcurrentInto reports; a pending walk a reset drops is never
// counted.
func TestSettledVisitsReachNextMeasurement(t *testing.T) {
	const bytes, stride, passes = 64 * topology.KB, 1024, 2
	in := NewInstanceAt(topology.Nehalem2S(), 1)
	sp := in.NewSpace()
	a, b, other := sp.Alloc(bytes), sp.Alloc(bytes), sp.Alloc(bytes)
	var total, measured float64
	want := int64(bytes / stride * 3)
	if c := in.AccessStridePasses(0, sp, a.Base, bytes, stride, passes, &total, &measured); c.Filled == 0 || c.InstallVisits != 0 {
		t.Fatalf("first measurement: %+v, want a fill and no install visit", c)
	}
	sp.Free(other)
	if c := in.AccessStridePasses(4, sp, b.Base, bytes, stride, passes, &total, &measured); c.Filled == 0 || c.InstallVisits != want {
		t.Fatalf("measurement after a settling Free: %+v, want a fill and %d install visits", c, want)
	}
	in.Access(0, sp, a.Base)
	if c := RunConcurrentInto(in, nil, passes, nil); c.InstallVisits != want {
		t.Fatalf("run after a settling Access: %+v, want %d install visits", c, want)
	}
	in.ResetCaches()
	in.AccessStridePasses(0, sp, a.Base, bytes, stride, passes, &total, &measured)
	in.ResetCaches()
	if c := in.AccessStridePasses(0, sp, a.Base, bytes, stride, passes, &total, &measured); c.Filled == 0 || c.InstallVisits != 0 {
		t.Fatalf("measurement after a reset dropped a pending walk: %+v, want a fill and no install visit", c)
	}
}
