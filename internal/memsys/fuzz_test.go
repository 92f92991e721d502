package memsys

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"servet/internal/topology"
)

// The ResetAt contract as a property over machine shapes: for any
// machine the decoder below can build and any placement keys, a pooled
// instance dirtied by an unrelated measurement and then reset behaves
// exactly like a freshly built one.

// shapeBytes encodes a machine's memory-system shape in the byte layout
// fuzzMachine decodes: cores-1, pageShift-8, flags (bit 0 coloring,
// bit 1 TLB), TLB entries-1, prefetch stride/256, levels-1, then per
// level lineShift-4, assoc-1, sets-1 (big-endian uint16), indexing and
// sharing-group size-1. The built-in models encode exactly up to their
// sharing groups, which decode as consecutive runs of cores, and their
// latencies, which fuzzMachine sets itself.
func shapeBytes(m *topology.Machine) []byte {
	var flags byte
	if m.PageColoring {
		flags |= 1
	}
	if m.TLBEntries > 0 {
		flags |= 2
	}
	b := []byte{
		byte(m.CoresPerNode - 1),
		byte(bits.TrailingZeros64(uint64(m.PageBytes)) - 8),
		flags,
		byte(max(m.TLBEntries, 1) - 1),
		byte(m.PrefetchMaxStrideBytes / 256),
		byte(len(m.Caches) - 1),
	}
	for i := range m.Caches {
		c := &m.Caches[i]
		sets := c.SizeBytes/(c.LineBytes*int64(c.Assoc)) - 1
		b = append(b,
			byte(bits.TrailingZeros64(uint64(c.LineBytes))-4),
			byte(c.Assoc-1),
			byte(sets>>8), byte(sets),
			byte(c.Indexing),
			byte(len(c.Groups[0])-1))
	}
	return b
}

// fuzzMachine decodes a shape into a machine that passes Validate:
// every field is folded into its legal range, missing bytes read as
// zero, and each level is made larger than the one above it. Physical
// memory is sized so page coloring never runs a color dry. Level l
// costs 3l cycles, memory 200 and a TLB miss 30; a non-zero byte frac
// after the levels adds frac/100 cycles to each of them, mostly a
// fraction float64 cannot represent, so sums of such costs round.
func fuzzMachine(shape []byte) *topology.Machine {
	m, _ := decodeMachine(shape)
	return m
}

// decodeMachine is fuzzMachine, also returning the bytes of shape
// after the frac byte, which the machine does not read.
func decodeMachine(shape []byte) (*topology.Machine, []byte) {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return int(b)
	}
	cores := 1 + next()%32
	m := &topology.Machine{
		Name: "fuzz", ClockGHz: 2, Nodes: 1, CoresPerNode: cores,
		PageBytes: 1 << (8 + next()%9),
		Memory:    topology.Memory{LatencyCycles: 200, PerCoreGBs: 1},
	}
	flags, tlbEntries := next(), 1+next()%64
	m.PageColoring = flags&1 != 0
	if flags&2 != 0 {
		m.TLBEntries, m.TLBMissCycles = tlbEntries, 30
	}
	m.PrefetchMaxStrideBytes = int64(next()%3) * 256
	levels := 1 + next()%3
	var prev int64
	for l := 1; l <= levels; l++ {
		line := int64(1) << (4 + next()%4)
		assoc := 1 + next()%32
		sets := int64(1 + (next()<<8|next())%(1<<15))
		for sets*line*int64(assoc) <= prev {
			sets *= 2
		}
		indexing := topology.Indexing(next() % 2)
		group := 1 + next()%cores
		var groups [][]int
		for first := 0; first < cores; first += group {
			var g []int
			for c := first; c < min(first+group, cores); c++ {
				g = append(g, c)
			}
			groups = append(groups, g)
		}
		m.Caches = append(m.Caches, topology.CacheLevel{
			Level: l, SizeBytes: sets * line * int64(assoc), Assoc: assoc, LineBytes: line,
			LatencyCycles: float64(3 * l), Indexing: indexing, Groups: groups,
		})
		prev = sets * line * int64(assoc)
	}
	if frac := float64(next()) / 100; frac != 0 {
		for i := range m.Caches {
			m.Caches[i].LatencyCycles += frac
		}
		m.Memory.LatencyCycles += frac
		if m.TLBEntries > 0 {
			m.TLBMissCycles += frac
		}
	}
	m.PhysPagesPerNode = 1 << 16
	for m.PhysPagesPerNode < 64*colorCount(m) {
		m.PhysPagesPerNode *= 2
	}
	return m, shape
}

// Follow-up operations, which a fuzz input's optional trailing byte
// picks (modulo 5) after its measurement, so that the measurement's
// pending end state is read, extended, unmapped or dropped before the
// end states are compared.
const (
	// followAccess loads one address of the walked array.
	followAccess = iota
	// followWalk runs the measurement again without a reset.
	followWalk
	// followRealloc frees the walked array, allocates one of the same
	// size in its space and loads the new array's first address.
	followRealloc
	// followReset runs ResetCaches and then the measurement again.
	followReset
	// followTraverse runs one AccessStrideAccum traversal of the walked
	// array.
	followTraverse
	// followNone is what a missing byte picks: no follow-up.
	followNone = -1
)

// followOp returns the follow-up operation the bytes left after a fuzz
// input's decoding pick: followNone when there are none.
func followOp(rest []byte) int {
	if len(rest) == 0 {
		return followNone
	}
	return int(rest[0] % 5)
}

// strideTrace traverses one array with the given stride on core 0 and
// then on the last core, recording each access's translation and cost,
// and goes back to the array's base on core 0: a dirtied instance's
// last translated page is then exactly the page a reset instance
// touches first, so page-table state that survived the reset would
// show as a stale frame. It ends with a strided measurement of the
// array on core 0 over emptied caches, which leaves the end state of a
// filled warm-up pending for the reset that follows a dirtying run.
func strideTrace(in *Instance, bytes, stride int64) []float64 {
	sp := in.NewSpace()
	a := sp.Alloc(bytes)
	var trace []float64
	for _, core := range []int{0, in.Machine().CoresPerNode - 1} {
		for off := int64(0); off < bytes; off += stride {
			v := a.Base + off
			trace = append(trace, float64(sp.translate(v)), in.Access(core, sp, v))
		}
	}
	trace = append(trace, float64(sp.translate(a.Base)), in.Access(0, sp, a.Base))
	in.ResetCaches()
	var total, measured float64
	in.AccessStridePasses(0, sp, a.Base, bytes, stride, 2, &total, &measured)
	return append(trace, total, measured)
}

// FuzzResetAtMatchesFresh: ResetAt(seed, keys...) on a dirtied pooled
// instance must reproduce NewInstanceAt(m, seed, keys...)'s traces on
// arbitrary machine shapes — poolingTrace's costs, translations,
// concurrent-stream statistics and post-Free accesses, and a strided
// traversal of fuzzed size and stride.
func FuzzResetAtMatchesFresh(f *testing.F) {
	for _, m := range fastpathMachines() {
		f.Add(shapeBytes(m), int64(1), []byte{2, 5, 0}, uint16(4096), uint16(1024))
	}
	colored := topology.Nehalem2S()
	colored.PageColoring = true
	f.Add(shapeBytes(colored), int64(7), []byte{1, 0xff, 3}, uint16(300), uint16(832))
	// A 4 MiB walk at the 1 KiB probe stride, filled over all three
	// nehalem2s levels: the dirtied instance's ResetAt drops its
	// pending end state.
	f.Add(shapeBytes(topology.Nehalem2S()), int64(8), []byte{3, 1}, uint16(65535), uint16(1023))
	f.Fuzz(func(t *testing.T, shape []byte, seed int64, keyBytes []byte, lines, stride uint16) {
		m := fuzzMachine(shape)
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded shape %v is invalid: %v", shape, err)
		}
		// Each key byte is a small signed key, as the probes' level,
		// pair and placement indices are.
		keys := make([]int64, 0, min(len(keyBytes), 8))
		for _, k := range keyBytes[:min(len(keyBytes), 8)] {
			keys = append(keys, int64(int8(k)))
		}
		// Up to 4 MB, in at most 4096 accesses per core.
		bytes := 1 + int64(lines)*64
		step := max(1+int64(stride), bytes/4096)
		for _, tr := range []struct {
			name string
			run  func(*Instance) []float64
		}{
			{"pooling", poolingTrace},
			{"stride", func(in *Instance) []float64 { return strideTrace(in, bytes, step) }},
		} {
			want := tr.run(NewInstanceAt(m, seed, keys...))
			pooled := NewInstanceAt(m, seed+1, 99)
			_ = tr.run(pooled)
			pooled.ResetAt(seed, keys...)
			assertTraceEqual(t, "fuzz", tr.name, seed, keys, tr.run(pooled), want)
		}
	})
}

// concurrentStreams decodes up to 4 streams on the instance from spec,
// each over its own array: per stream a core, a length of up to 2048
// accesses, a stride of 16 to 2048 bytes and an edit — none, swap two
// addresses, leave the stream empty, allocate its array in the
// previous stream's space instead of its own, touch its first address
// from its core before the run and then leave it empty, so the caches
// on that core's plan hold a line, or reverse the address list, so the
// walk descends. Missing bytes read as zero.
func concurrentStreams(in *Instance, spec []byte) []Stream {
	streams, _, _ := decodeStreams(in, spec)
	return streams
}

// decodeStreams is concurrentStreams, also returning each stream's
// array, nil when the stream left it unallocated, and the bytes of
// spec after the streams, which the streams do not read.
func decodeStreams(in *Instance, spec []byte) ([]Stream, []*Array, []byte) {
	next := func() int64 {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return int64(b)
	}
	streams := make([]Stream, 1+next()%4)
	arrays := make([]*Array, len(streams))
	for i := range streams {
		sp := in.NewSpace()
		core := int(next() % int64(in.m.CoresPerNode))
		n := 1 + (next()<<8|next())%2048
		stride := 16 * (1 + next()%128)
		edit, at := next()%16, next()
		if edit == 8 && i > 0 {
			sp = streams[i-1].Space
		}
		streams[i] = Stream{Core: core, Space: sp}
		if edit == 7 {
			continue
		}
		arrays[i] = sp.Alloc(n * stride)
		addrs := strided(arrays[i], stride)
		switch {
		case edit == 6 && len(addrs) > 1:
			j := int(at) % (len(addrs) - 1)
			addrs[j], addrs[j+1] = addrs[j+1], addrs[j]
		case edit == 9:
			in.Access(core, sp, addrs[0])
			continue
		case edit == 10:
			slices.Reverse(addrs)
		}
		streams[i].Addrs = addrs
	}
	return streams, arrays, spec
}

// FuzzRunConcurrentMatchesReference: over machine shapes decoded like
// FuzzResetAtMatchesFresh's, 1 to 4 streams on random cores — coupled
// ones, whose cold warm-up may be filled before they interleave or, for
// a pair sharing only the last level, before runStacked decides the
// rest, and lone ones that run through the filled, derived and replayed
// passes when they rise at one stride and through the interleaver when
// two of their addresses are swapped or their list is reversed — over
// 1 to 4 passes, RunConcurrentInto's statistics equal the linear-scan
// reference's bit for bit, and both instances end in the same state,
// after the follow-up an optional byte after the streams picks
// (followOp). The seeds after the machine and nehalem2s ones are
// coupledSeeds, then the follow-up ones.
func FuzzRunConcurrentMatchesReference(f *testing.F) {
	for _, m := range fastpathMachines() {
		f.Add(shapeBytes(m), int64(1), []byte{1, 0, 0, 64, 63, 0, 0, 1, 0, 96, 63, 0, 0}, uint8(2))
	}
	nehalem := shapeBytes(topology.Nehalem2S())
	f.Add(nehalem, int64(2), []byte{1, 0, 0, 96, 63, 0, 0, 4, 0, 160, 63, 6, 7}, uint8(2))                     // lone, one swapped
	f.Add(nehalem, int64(3), []byte{2, 0, 0, 96, 63, 0, 0, 4, 0, 160, 63, 6, 7, 5, 0, 50, 63, 0, 0}, uint8(3)) // lone beside a coupled pair
	f.Add(nehalem, int64(4), []byte{1, 2, 0, 128, 15, 0, 0, 7, 0, 64, 1, 0, 0}, uint8(1))                      // prefetched and sub-line strides
	f.Add(nehalem, int64(5), []byte{1, 4, 0, 128, 63, 7, 0, 4, 0, 64, 63, 0, 0}, uint8(2))                     // empty beside lone
	f.Add(nehalem, int64(6), []byte{1, 0, 0, 96, 63, 10, 0, 4, 0, 160, 63, 0, 0}, uint8(2))                    // lone descending beside lone strided
	for _, c := range coupledSeeds() {
		f.Add(c.shape, int64(6), c.spec, uint8(2))
	}
	// Follow-ups, picked by a byte after the streams: after a stacked
	// same-socket pair, whose private prefixes and shared L3 are
	// pending, and after a pair on two sockets, each stream filled,
	// derived and replayed alone with its walk pending.
	for op := range byte(5) {
		f.Add(nehalem, int64(7), []byte{1, 0, 7, 255, 63, 0, 0, 1, 7, 255, 63, 0, 0, op}, uint8(2))
		f.Add(nehalem, int64(8), []byte{1, 0, 0, 96, 63, 0, 0, 4, 0, 160, 63, 0, 0, op}, uint8(2))
	}
	f.Fuzz(func(t *testing.T, shape []byte, seed int64, spec []byte, passes uint8) {
		m := fuzzMachine(shape)
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded shape %v is invalid: %v", shape, err)
		}
		np := 1 + int(passes%4)
		inRef, inRun := NewInstanceAt(m, seed), NewInstanceAt(m, seed)
		strRef, arrRef, rest := decodeStreams(inRef, spec)
		strRun, arrRun, _ := decodeStreams(inRun, spec)
		run := func(phase string) {
			want := runConcurrentReference(inRef, strRef, np)
			got := make([]StreamStats, len(strRun))
			RunConcurrentInto(inRun, strRun, np, got)
			for i := range want {
				if math.Float64bits(got[i].Cycles) != math.Float64bits(want[i].Cycles) || got[i].Accesses != want[i].Accesses {
					t.Fatalf("%s, stream %d: RunConcurrentInto %+v, reference %+v", phase, i, got[i], want[i])
				}
			}
		}
		run("run")
		// The follow-up acts on the first stream with an array.
		k := slices.IndexFunc(arrRun, func(a *Array) bool { return a != nil })
		load := func(phase string, sRef, sRun *Space, vRef, vRun int64) {
			core := strRun[k].Core
			if got, want := inRun.Access(core, sRun, vRun), inRef.Access(core, sRef, vRef); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Access costs %v, reference %v", phase, got, want)
			}
		}
		op := followOp(rest)
		if k < 0 && op != followWalk && op != followReset {
			op = followNone
		}
		switch op {
		case followAccess:
			off := arrRun[k].Bytes / 2
			load("access after the run", strRef[k].Space, strRun[k].Space, arrRef[k].Base+off, arrRun[k].Base+off)
		case followWalk:
			run("second run")
		case followRealloc:
			spRef, spRun := strRef[k].Space, strRun[k].Space
			spRef.Free(arrRef[k])
			spRun.Free(arrRun[k])
			bRef, bRun := spRef.Alloc(arrRef[k].Bytes), spRun.Alloc(arrRun[k].Bytes)
			load("access after free and alloc", spRef, spRun, bRef.Base, bRun.Base)
		case followReset:
			inRef.ResetCaches()
			inRun.ResetCaches()
			run("run after ResetCaches")
		case followTraverse:
			var got, want float64
			const stride = 1024
			core := strRun[k].Core
			inRun.AccessStrideAccum(core, strRun[k].Space, arrRun[k].Base, arrRun[k].Bytes, stride, &got, nil)
			inRef.AccessStrideAccum(core, strRef[k].Space, arrRef[k].Base, arrRef[k].Bytes, stride, &want, nil)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("traversal after the run costs %v, reference %v", got, want)
			}
		}
		sRef, sRun := stateOf(inRef), stateOf(inRun)
		if !slices.Equal(sRun.caches, sRef.caches) || sRun.cores != sRef.cores {
			t.Fatalf("end state differs from the reference's:\n%s\nreference\n%s", sRun.cores, sRef.cores)
		}
	})
}
