package core

import (
	"context"
	"testing"

	"servet/internal/obs"
	"servet/internal/topology"
)

// TestMcalibratorReplaysSecondPass: at default options every nehalem2s
// mcalibrator traversal is one warm-up and two measured passes, and
// each reaches its fixed point after the warm-up, so exactly one
// access in three is replayed instead of simulated. The traced
// calibration equals the untraced one.
func TestMcalibratorReplaysSecondPass(t *testing.T) {
	m := topology.Nehalem2S()
	tr := obs.New()
	traced, err := McalibratorContext(obs.WithTracer(context.Background(), tr), m, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	accesses, replayed := tr.Counter(obs.CounterMemsysAccesses), tr.Counter(obs.CounterMemsysReplayed)
	if accesses == 0 || 3*replayed != accesses {
		t.Errorf("%s = %d, %s = %d: want exactly one third replayed",
			obs.CounterMemsysAccesses, accesses, obs.CounterMemsysReplayed, replayed)
	}
	plain, err := McalibratorContext(context.Background(), m, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if traced.ProbeCycles != plain.ProbeCycles {
		t.Errorf("traced ProbeCycles %v, untraced %v", traced.ProbeCycles, plain.ProbeCycles)
	}
	for i := range plain.Cycles {
		if traced.Cycles[i] != plain.Cycles[i] {
			t.Fatalf("size %d: traced %v cycles, untraced %v", plain.Sizes[i], traced.Cycles[i], plain.Cycles[i])
		}
	}
}
