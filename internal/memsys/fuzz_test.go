package memsys

import (
	"math/bits"
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
// sharing groups, which decode as consecutive runs of cores.
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
// memory is sized so page coloring never runs a color dry.
func fuzzMachine(shape []byte) *topology.Machine {
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
	m.PhysPagesPerNode = 1 << 16
	for m.PhysPagesPerNode < 64*colorCount(m) {
		m.PhysPagesPerNode *= 2
	}
	return m
}

// strideTrace traverses one array with the given stride on core 0 and
// then on the last core, recording each access's translation (through
// the core's translation cache) and cost, and ends back at the array's
// base on core 0: a dirtied instance's last cached translation then
// names exactly the page a reset instance touches first, so a
// translation cache that survived the reset would serve a stale frame.
func strideTrace(in *Instance, bytes, stride int64) []float64 {
	sp := in.NewSpace()
	a := sp.Alloc(bytes)
	var trace []float64
	for _, core := range []int{0, in.Machine().CoresPerNode - 1} {
		for off := int64(0); off < bytes; off += stride {
			v := a.Base + off
			trace = append(trace, float64(in.translateFor(core, sp, v)), in.Access(core, sp, v))
		}
	}
	return append(trace, float64(in.translateFor(0, sp, a.Base)), in.Access(0, sp, a.Base))
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
