package memsys

import (
	"testing"

	"servet/internal/topology"
)

// Tests pinning the ResetAt contract: a reset instance is
// bitwise-equivalent to NewInstanceAt(m, seed, keys...) — identical
// access traces, translations, RunConcurrent statistics and post-Free
// behavior — and a warm reset-and-measure cycle allocates nothing.

// poolingTrace runs a fixed workload on the instance and returns its
// full observable trace: per-access costs, page translations,
// concurrent stream statistics, and accesses after a Free (TLB
// shootdown included). Two instances are bitwise-equivalent iff their
// traces match element for element.
func poolingTrace(in *Instance) []float64 {
	var trace []float64
	sp := in.NewSpace()
	a := sp.Alloc(192 * topology.KB)
	b := sp.Alloc(768 * topology.KB)
	// Unaligned stride: crosses lines and pages unevenly.
	for _, arr := range []*Array{a, b} {
		for off := int64(0); off < arr.Bytes; off += 832 {
			trace = append(trace, in.Access(0, sp, arr.Base+off))
		}
		trace = append(trace, float64(sp.translate(arr.Base)), float64(sp.translate(arr.Base+arr.Bytes-1)))
	}
	// Concurrent streams from a second space thrash shared levels.
	sp2 := in.NewSpace()
	c := sp2.Alloc(128 * topology.KB)
	streams := []Stream{
		{Core: 0, Space: sp, Addrs: strided(a, 1*topology.KB)},
		{Core: in.Machine().CoresPerNode - 1, Space: sp2, Addrs: strided(c, 1*topology.KB)},
	}
	for _, st := range RunConcurrent(in, streams, 3) {
		trace = append(trace, float64(st.Accesses), st.Cycles)
	}
	// Free + TLB shootdown, then re-traverse the survivor: the freed
	// frames return to the pool and every stale translation must be
	// gone, exactly as on a fresh instance.
	sp.Free(a)
	var total, measured float64
	in.AccessStrideAccum(0, sp, b.Base, b.Bytes, 1*topology.KB, &total, &measured)
	trace = append(trace, total, measured)
	d := sp.Alloc(64 * topology.KB)
	for off := int64(0); off < d.Bytes; off += 4 * topology.KB {
		trace = append(trace, in.Access(0, sp, d.Base+off))
	}
	return trace
}

func TestResetAtMatchesFresh(t *testing.T) {
	seedKeys := []struct {
		seed int64
		keys []int64
	}{
		{1, nil},
		{1, []int64{2, 5, 0}},
		{7, []int64{1, -1, 3}},
		{42, []int64{1, 2, 3, 4}},
	}
	for name, m := range fastpathMachines() {
		// One pooled instance per machine, dirtied with an unrelated
		// placement before each comparison so the reset cannot lean on
		// leftover state matching by accident.
		pooled := NewInstanceAt(m, 99, 123)
		_ = poolingTrace(pooled)
		for _, tc := range seedKeys {
			want := poolingTrace(NewInstanceAt(m, tc.seed, tc.keys...))
			pooled.ResetAt(tc.seed, tc.keys...)
			got := poolingTrace(pooled)
			assertTraceEqual(t, name, "reset", tc.seed, tc.keys, got, want)
			// A second reset to the same keys must reproduce it again:
			// the trace itself (Free included) must not leak state
			// through the reset.
			pooled.ResetAt(tc.seed, tc.keys...)
			assertTraceEqual(t, name, "re-reset", tc.seed, tc.keys, poolingTrace(pooled), want)
		}
	}
}

func assertTraceEqual(t *testing.T, machine, phase string, seed int64, keys []int64, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %s seed=%d keys=%v: trace length %d, want %d", machine, phase, seed, keys, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s %s seed=%d keys=%v: trace[%d] = %v, fresh instance = %v", machine, phase, seed, keys, i, got[i], want[i])
		}
	}
}

// TestResetAtSteadyStateAllocFree: once an instance has served one
// measurement of a shape, ResetAt and a full reset-and-measure cycle
// allocate nothing.
func TestResetAtSteadyStateAllocFree(t *testing.T) {
	m := topology.Dunnington()
	m.TLBEntries = 16
	m.TLBMissCycles = 30
	in := NewInstanceAt(m, 1)
	measure := func(k int64) float64 {
		in.ResetAt(1, 7, k)
		sp := in.NewSpace()
		a := sp.Alloc(1 * topology.MB)
		var total, measured float64
		in.AccessStrideAccum(0, sp, a.Base, a.Bytes, 1*topology.KB, &total, &measured)
		sp.Free(a)
		return measured
	}
	measure(0) // warm: grows every pool to the measurement's shape
	if n := testing.AllocsPerRun(10, func() { in.ResetAt(1, 7, 99) }); n != 0 {
		t.Errorf("ResetAt allocates %v/op on a warm instance, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { measure(1) }); n != 0 {
		t.Errorf("pooled measurement allocates %v/op on a warm instance, want 0", n)
	}
}

// TestRunConcurrentIntoAllocFree: a warm instance reruns concurrent
// streams into a caller-owned stats buffer without allocating.
func TestRunConcurrentIntoAllocFree(t *testing.T) {
	m := topology.FinisTerrae(1)
	in := NewInstanceAt(m, 1)
	var streams [2]Stream
	var stats [2]StreamStats
	run := func(k int64) {
		in.ResetAt(1, k)
		spA, spB := in.NewSpace(), in.NewSpace()
		arrA, arrB := spA.Alloc(64*topology.KB), spB.Alloc(64*topology.KB)
		streams[0] = Stream{Core: 0, Space: spA, Addrs: streams[0].Addrs}
		streams[1] = Stream{Core: 1, Space: spB, Addrs: streams[1].Addrs}
		streams[0].Addrs = appendStrided(streams[0].Addrs[:0], arrA, 1*topology.KB)
		streams[1].Addrs = appendStrided(streams[1].Addrs[:0], arrB, 1*topology.KB)
		RunConcurrentInto(in, streams[:], 3, stats[:])
	}
	run(0) // warm
	if n := testing.AllocsPerRun(10, func() { run(1) }); n != 0 {
		t.Errorf("RunConcurrentInto cycle allocates %v/op on a warm instance, want 0", n)
	}
	// The pooled stats must match the allocating wrapper bit for bit.
	run(2)
	want := make([]StreamStats, 2)
	copy(want, stats[:])
	in.ResetAt(1, 2)
	spA, spB := in.NewSpace(), in.NewSpace()
	arrA, arrB := spA.Alloc(64*topology.KB), spB.Alloc(64*topology.KB)
	got := RunConcurrent(in, []Stream{
		{Core: 0, Space: spA, Addrs: strided(arrA, 1*topology.KB)},
		{Core: 1, Space: spB, Addrs: strided(arrB, 1*topology.KB)},
	}, 3)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("stream %d: RunConcurrent %+v vs RunConcurrentInto %+v", i, got[i], want[i])
		}
	}
}

// appendStrided is strided appending into a reusable buffer.
func appendStrided(dst []int64, a *Array, stride int64) []int64 {
	for off := int64(0); off < a.Bytes; off += stride {
		dst = append(dst, a.Base+off)
	}
	return dst
}
