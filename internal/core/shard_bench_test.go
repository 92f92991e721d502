package core

import (
	"context"
	"testing"

	"servet/internal/topology"
)

// Benchmarks for the sharded shared-cache sweep and the memory-overhead
// sweep, companions of BenchmarkCommCostsPairSweepSeq: parallel
// configurations must return byte-identical results
// (TestSharedCacheShardedGolden) while scaling wall-clock with worker
// count on multicore hosts. The memory-overhead sweep runs at
// parallelism cheapSweep whatever Options.Parallelism says, so it has
// only a sequential row. The CI benchmark smoke job runs every
// configuration once so the sweeps cannot rot.

// benchSharedCache runs the Fig. 5 sweep on FinisTerrae (16 cores,
// 120 pairs x 3 levels).
func benchSharedCache(b *testing.B, parallelism int) {
	b.Helper()
	m := topology.FinisTerrae(1)
	levels := []DetectedCache{
		{Level: 1, SizeBytes: 16 * topology.KB},
		{Level: 2, SizeBytes: 256 * topology.KB},
		{Level: 3, SizeBytes: 9 * topology.MB},
	}
	opt := Options{Seed: 1, Allocations: 2, Parallelism: parallelism}
	for i := 0; i < b.N; i++ {
		res, err := SharedCachesContext(context.Background(), m, levels, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 3 {
			b.Fatalf("levels = %d", len(res))
		}
	}
}

func BenchmarkSharedCachePairSweepSeq(b *testing.B)  { benchSharedCache(b, 1) }
func BenchmarkSharedCachePairSweepPar2(b *testing.B) { benchSharedCache(b, 2) }
func BenchmarkSharedCachePairSweepPar4(b *testing.B) { benchSharedCache(b, 4) }
func BenchmarkSharedCachePairSweepPar8(b *testing.B) { benchSharedCache(b, 8) }

// BenchmarkMemOverheadSweepSeq runs the Fig. 6 sweep on Dunnington (24
// cores, 276 pairs).
func BenchmarkMemOverheadSweepSeq(b *testing.B) {
	m := topology.Dunnington()
	opt := Options{Seed: 1}
	for i := 0; i < b.N; i++ {
		res, _, err := MemoryOverheadContext(context.Background(), m, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Levels) != 1 {
			b.Fatalf("levels = %d", len(res.Levels))
		}
	}
}
