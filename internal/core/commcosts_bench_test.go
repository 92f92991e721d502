package core

import (
	"context"
	"testing"

	"servet/internal/topology"
)

// Benchmarks for the sharded communication-costs sweep on the largest
// paper model (FinisTerrae on two nodes: 32 cores, 496 pairs). The
// acceptance bar for the sharding PR is ≥2x wall-clock speedup at
// parallelism 4+ over the sequential sweep, with byte-identical
// results (see TestCommCostsShardedGolden).
func benchCommCosts(b *testing.B, parallelism int) {
	b.Helper()
	m := topology.FinisTerrae(2)
	opt := Options{
		Seed: 1, CommReps: 2,
		BWSizes:     []int64{4 * topology.KB, 64 * topology.KB, 1 * topology.MB},
		Parallelism: parallelism,
	}
	for i := 0; i < b.N; i++ {
		res, _, err := CommunicationCostsContext(context.Background(), m, 16*topology.KB, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Layers) != 2 {
			b.Fatalf("layers = %d", len(res.Layers))
		}
	}
}

func BenchmarkCommCostsPairSweepSeq(b *testing.B)  { benchCommCosts(b, 1) }
func BenchmarkCommCostsPairSweepPar2(b *testing.B) { benchCommCosts(b, 2) }
func BenchmarkCommCostsPairSweepPar4(b *testing.B) { benchCommCosts(b, 4) }
func BenchmarkCommCostsPairSweepPar8(b *testing.B) { benchCommCosts(b, 8) }
