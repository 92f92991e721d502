package core

import (
	"context"
	"testing"

	"servet/internal/memsys"
	"servet/internal/obs"
	"servet/internal/topology"
)

// Steady-state allocation tests for the pooled sweeps: once a worker's
// scratch has served one measurement of a shape, further measurements
// must allocate nothing — the tentpole contract of the pooled
// measurement pipeline.

func TestPooledMcalMeasurementAllocFree(t *testing.T) {
	m := topology.Dempsey()
	opt := Options{Seed: 1, Allocations: 2}.withDefaults(m)
	in := memsys.NewInstanceAt(m, opt.Seed)
	ctx := context.Background()
	size := int64(256 * topology.KB)
	if _, err := measureMcalSize(ctx, nil, in, 0, opt, 3, size); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(5, func() {
		if _, err := measureMcalSize(ctx, nil, in, 0, opt, 4, size); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("warm mcalibrator measurement allocates %v/op, want 0", n)
	}
}

// TestPooledSharedCacheMeasurementAllocFree: a warm shared-cache
// measurement allocates nothing, on FinisTerrae, whose pairs share no
// cache and run each stream alone, and on a nehalem2s same-socket
// pair, whose streams share the L3 and fill their cold warm-up
// together before they interleave — or, over the (2/3)·8 MiB arrays of
// the L3's measurement, before their LRU stack distances at the L3
// decide every later access.
func TestPooledSharedCacheMeasurementAllocFree(t *testing.T) {
	m := topology.FinisTerrae(1)
	opt := Options{Seed: 1, Allocations: 1}.withDefaults(m)
	sc := &scScratch{in: memsys.NewInstanceAt(m, opt.Seed)}
	ab := int64(64 * topology.KB)
	sc.measureRef(nil, opt, 1, 0, ab)
	sc.measurePair(opt, 1, 0, [2]int{0, 1}, 0, ab)
	n := testing.AllocsPerRun(5, func() {
		sc.measureRef(nil, opt, 2, 1, ab)
		sc.measurePair(opt, 2, 1, [2]int{0, 2}, 1, ab)
	})
	if n != 0 {
		t.Errorf("warm shared-cache measurement allocates %v/op, want 0", n)
	}

	nehalem := topology.Nehalem2S()
	opt = Options{Seed: 1, Allocations: 1}.withDefaults(nehalem)
	sc = &scScratch{tr: obs.New(), in: memsys.NewInstanceAt(nehalem, opt.Seed)}
	sc.measurePair(opt, 3, 0, [2]int{0, 1}, 0, ab)
	if filled := sc.tr.Counter(obs.CounterMemsysFilled); filled != 2*ab/opt.StrideBytes {
		t.Fatalf("nehalem2s same-socket pair filled %d accesses, want both warm-ups: %d", filled, 2*ab/opt.StrideBytes)
	}
	sc.tr = nil
	n = testing.AllocsPerRun(5, func() {
		sc.measurePair(opt, 3, 1, [2]int{1, 2}, 1, ab)
	})
	if n != 0 {
		t.Errorf("warm coupled shared-cache measurement allocates %v/op, want 0", n)
	}

	l3 := nehalem.Caches[2].SizeBytes * 2 / 3
	l3 -= l3 % opt.StrideBytes
	sc.tr = obs.New()
	sc.measurePair(opt, 3, 0, [2]int{0, 1}, 0, l3)
	if stacked := sc.tr.Counter(obs.CounterMemsysStacked); stacked == 0 {
		t.Fatalf("nehalem2s same-socket pair over %d bytes stacked no access", l3)
	}
	sc.tr = nil
	n = testing.AllocsPerRun(5, func() {
		sc.measurePair(opt, 3, 1, [2]int{1, 2}, 1, l3)
	})
	if n != 0 {
		t.Errorf("warm stacked shared-cache measurement allocates %v/op, want 0", n)
	}
}

// TestPooledMeasurementMatchesFreshInstance: the pooled measurement
// bodies reproduce the historical fresh-instance results bit for bit —
// the property the sharded-parity goldens rest on, checked here at the
// single-measurement level.
func TestPooledMeasurementMatchesFreshInstance(t *testing.T) {
	m := topology.Dempsey()
	opt := Options{Seed: 1, Allocations: 3}.withDefaults(m)
	size := int64(384 * topology.KB)

	in := memsys.NewInstanceAt(m, opt.Seed)
	// Dirty the pool with a different measurement first.
	if _, err := measureMcalSize(context.Background(), nil, in, 0, opt, 9, 128*topology.KB); err != nil {
		t.Fatal(err)
	}
	got, err := measureMcalSize(context.Background(), nil, in, 0, opt, 5, size)
	if err != nil {
		t.Fatal(err)
	}

	var want mcalSample
	for alloc := 0; alloc < opt.Allocations; alloc++ {
		fresh := memsys.NewInstanceAt(m, opt.Seed, noiseMcal, 0, 5, int64(alloc))
		sp := fresh.NewSpace()
		a := sp.Alloc(size)
		var total float64
		want.avg += traverse(nil, fresh, 0, sp, a, opt.StrideBytes, opt.Passes, &total)
		want.total += total
	}
	want.avg /= float64(opt.Allocations)
	if got != want {
		t.Errorf("pooled measurement %+v, fresh instances %+v", got, want)
	}
}
