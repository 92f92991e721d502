package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"servet/internal/topology"
)

// contains reports whether the line is cached, without touching LRU
// state.
func (c *cache) contains(vLine, pLine int64) bool {
	if c.lines == nil {
		return false
	}
	idx := c.setIndex(vLine, pLine)
	base := idx * c.assoc
	for _, tag := range c.lines[base : base+int64(c.lens[idx])] {
		if tag == uint32(pLine) {
			return true
		}
	}
	return false
}

func tinyCacheSpec(size int64, assoc int, ix topology.Indexing) *topology.CacheLevel {
	return &topology.CacheLevel{
		Level: 1, SizeBytes: size, Assoc: assoc, LineBytes: 64,
		LatencyCycles: 3, Indexing: ix, Groups: topology.PrivateGroups(1),
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := newCache(tinyCacheSpec(1024, 2, topology.PhysicallyIndexed))
	if c.access(5, 5) {
		t.Error("first access must miss")
	}
	if !c.access(5, 5) {
		t.Error("second access must hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 KB, 2-way, 64 B lines -> 8 sets. Lines 0, 8, 16 map to set 0.
	c := newCache(tinyCacheSpec(1024, 2, topology.PhysicallyIndexed))
	c.access(0, 0)
	c.access(8, 8)
	c.access(0, 0)   // 0 becomes MRU; LRU is 8
	c.access(16, 16) // evicts 8
	if !c.contains(0, 0) {
		t.Error("line 0 (MRU) was evicted")
	}
	if c.contains(8, 8) {
		t.Error("line 8 (LRU) survived")
	}
	if !c.contains(16, 16) {
		t.Error("line 16 missing")
	}
}

func TestCacheVirtualVsPhysicalIndexing(t *testing.T) {
	v := newCache(tinyCacheSpec(1024, 2, topology.VirtuallyIndexed))
	p := newCache(tinyCacheSpec(1024, 2, topology.PhysicallyIndexed))
	// vLine 1, pLine 9: virtual indexing puts it in set 1, physical in
	// set 1 too (9%8). Use vLine 1 / pLine 10: virtual set 1, physical
	// set 2.
	v.access(1, 10)
	p.access(1, 10)
	if v.setIndex(1, 10) != 1 {
		t.Errorf("virtual set = %d, want 1", v.setIndex(1, 10))
	}
	if p.setIndex(1, 10) != 2 {
		t.Errorf("physical set = %d, want 2", p.setIndex(1, 10))
	}
}

func TestCacheSetNeverExceedsAssocProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCache(tinyCacheSpec(2048, 4, topology.PhysicallyIndexed))
		for i := 0; i < 500; i++ {
			line := int64(rng.Intn(256))
			c.access(line, line)
		}
		for _, n := range c.lens {
			if int64(n) > c.assoc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheCyclicThrash(t *testing.T) {
	// Cyclic access to assoc+1 lines of one set under LRU must miss on
	// every access: this is the sharp transition the probes rely on.
	c := newCache(tinyCacheSpec(1024, 2, topology.PhysicallyIndexed))
	lines := []int64{0, 8, 16} // all set 0, 3 lines > 2 ways
	for pass := 0; pass < 3; pass++ {
		for _, l := range lines {
			if c.access(l, l) {
				t.Fatalf("pass %d: line %d hit; cyclic LRU should thrash", pass, l)
			}
		}
	}
}

func TestCacheReset(t *testing.T) {
	c := newCache(tinyCacheSpec(1024, 2, topology.PhysicallyIndexed))
	c.access(3, 3)
	c.reset()
	if c.contains(3, 3) {
		t.Error("reset did not clear the cache")
	}
}

func TestNewCacheValidation(t *testing.T) {
	cases := []struct {
		name      string
		size      int64
		assoc     int
		lineBytes int64
		wantPanic bool
	}{
		{"valid pow2", 1024, 2, 64, false},
		{"valid non-pow2 sets", 3 * 1024, 2, 64, false}, // 24 sets: legal, modulo path
		{"zero line", 1024, 2, 0, true},
		{"negative line", 1024, 2, -64, true},
		{"non-pow2 line", 1024, 2, 96, true},
		{"zero assoc", 1024, 0, 64, true},
		{"negative assoc", 1024, -1, 64, true},
		{"size below one set", 64, 2, 64, true},      // numSets = 0
		{"size not set multiple", 1000, 2, 64, true}, // 1000 / 128 leaves a remainder
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if tc.wantPanic && r == nil {
					t.Fatalf("newCache(size=%d assoc=%d line=%d) did not panic", tc.size, tc.assoc, tc.lineBytes)
				}
				if !tc.wantPanic && r != nil {
					t.Fatalf("newCache(size=%d assoc=%d line=%d) panicked: %v", tc.size, tc.assoc, tc.lineBytes, r)
				}
			}()
			spec := &topology.CacheLevel{
				Level: 1, SizeBytes: tc.size, Assoc: tc.assoc, LineBytes: tc.lineBytes,
				LatencyCycles: 3, Indexing: topology.PhysicallyIndexed, Groups: topology.PrivateGroups(1),
			}
			newCache(spec)
		})
	}
}

func TestCacheResetRetainsCapacity(t *testing.T) {
	c := newCache(tinyCacheSpec(1024, 2, topology.PhysicallyIndexed))
	for l := int64(0); l < 32; l++ {
		c.access(l, l)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.reset()
		for l := int64(0); l < 32; l++ {
			c.access(l, l)
		}
	})
	if allocs != 0 {
		t.Errorf("reset+refill allocated %.1f times per run; want 0 (capacity must be retained)", allocs)
	}
	c.reset()
	for l := int64(0); l < 32; l++ {
		if c.contains(l, l) {
			t.Fatalf("line %d survived reset", l)
		}
	}
}
