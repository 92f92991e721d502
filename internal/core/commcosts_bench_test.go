package core

import (
	"context"
	"testing"

	"servet/internal/topology"
)

// BenchmarkCommCostsPairSweepSeq runs the communication-costs sweep on
// the largest paper model (FinisTerrae on two nodes: 32 cores, 496
// pairs). The sweep runs at parallelism cheapSweep whatever
// Options.Parallelism says: fan-out did not pay for it (1.09× at
// parallelism 2 on a 2-CPU host), so it has no parallel rows.
func BenchmarkCommCostsPairSweepSeq(b *testing.B) {
	m := topology.FinisTerrae(2)
	opt := Options{
		Seed: 1, CommReps: 2,
		BWSizes: []int64{4 * topology.KB, 64 * topology.KB, 1 * topology.MB},
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
