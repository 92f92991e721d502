package core

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"servet/internal/obs"
	"servet/internal/report"
	"servet/internal/topology"
)

func timeDuration(ns float64) time.Duration { return time.Duration(ns) }

func TestProbeRegistryCanonicalOrder(t *testing.T) {
	want := []string{"cache-size", "shared-caches", "memory-overhead", "communication-costs", "tlb"}
	got := ProbeNames()
	if len(got) != len(want) {
		t.Fatalf("probes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("probe %d = %s, want %s", i, got[i], want[i])
		}
	}
	def := DefaultProbes()
	if len(def) != 4 || def[0] != "cache-size" || def[3] != "communication-costs" {
		t.Errorf("default probes = %v", def)
	}
}

// TestRegistryTopological pins the registry invariant the engine
// relies on: names are non-empty and unique, and every dependency
// precedes its dependent, so running and merging in registry order
// lets each probe (and its Apply) build on what its dependencies
// produced.
func TestRegistryTopological(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range registry {
		name := p.Name()
		if name == "" || seen[name] {
			t.Errorf("probe name %q is empty or duplicated", name)
		}
		for _, d := range p.Deps() {
			if !seen[d] {
				t.Errorf("probe %q depends on %q, which does not precede it", name, d)
			}
		}
		seen[name] = true
	}
}

func TestProbeClosurePullsDependencies(t *testing.T) {
	probes, err := probeClosure([]string{"communication-costs"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range probes {
		names = append(names, p.Name())
	}
	if len(names) != 2 || names[0] != "cache-size" || names[1] != "communication-costs" {
		t.Errorf("closure = %v", names)
	}
}

func TestProbeClosureUnknownName(t *testing.T) {
	_, err := probeClosure([]string{"quantum-entanglement"})
	var ue *UnknownProbeError
	if !errors.As(err, &ue) || ue.Name != "quantum-entanglement" {
		t.Fatalf("err = %v", err)
	}
	if len(ue.Known) == 0 {
		t.Error("error does not name the known probes")
	}
}

func TestRunProbesSubsetCacheSizeOnly(t *testing.T) {
	s, err := NewSuite(topology.Dempsey(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunProbes(context.Background(), "cache-size")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timings) != 1 || r.Timings[0].Stage != "cache-size" {
		t.Fatalf("timings = %+v", r.Timings)
	}
	if len(r.Caches) != 2 {
		t.Errorf("caches = %+v", r.Caches)
	}
	for _, c := range r.Caches {
		if len(c.SharedGroups) != 0 {
			t.Errorf("sharing detected without the shared-caches probe: %+v", c)
		}
	}
	if len(r.Memory.Levels) != 0 || r.Memory.RefBandwidthGBs != 0 {
		t.Errorf("memory populated: %+v", r.Memory)
	}
	if len(r.Comm.Layers) != 0 || r.Comm.MessageBytes != 0 {
		t.Errorf("comm populated: %+v", r.Comm)
	}
}

func TestRunProbesSubsetPullsDeps(t *testing.T) {
	s, err := NewSuite(topology.Dempsey(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunProbes(context.Background(), "shared-caches")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cache-size", "shared-caches"}
	if len(r.Timings) != len(want) {
		t.Fatalf("timings = %+v", r.Timings)
	}
	for i, st := range r.Timings {
		if st.Stage != want[i] {
			t.Errorf("stage %d = %s, want %s", i, st.Stage, want[i])
		}
	}
}

func TestRunProbesTLB(t *testing.T) {
	s, err := NewSuite(topology.TLBBox(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunProbes(context.Background(), "tlb")
	if err != nil {
		t.Fatal(err)
	}
	if r.TLB == nil || r.TLB.Entries != 64 {
		t.Errorf("TLB = %+v", r.TLB)
	}
	// A machine without a TLB yields no TLB entry, not an error.
	s2, err := NewSuite(topology.Dempsey(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.RunProbes(context.Background(), "tlb")
	if err != nil {
		t.Fatal(err)
	}
	if r2.TLB != nil {
		t.Errorf("phantom TLB: %+v", r2.TLB)
	}
}

// TestRunProbesNoCacheLevelsTypedError: a probe range that ends below
// the smallest cache produces a typed *NoCacheLevelsError through the
// engine — and its dependents (shared-caches, communication-costs)
// never start, so neither indexes into the empty level slice.
func TestRunProbesNoCacheLevelsTypedError(t *testing.T) {
	opt := Options{Seed: 1, MinCacheBytes: 4 * topology.KB, MaxCacheBytes: 8 * topology.KB}
	for _, parallelism := range []int{1, 4} {
		opt.Parallelism = parallelism
		s, err := NewSuite(topology.Dempsey(), opt)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		_, err = s.RunProbes(obs.WithTracer(context.Background(), tr))
		counts := tr.SpanCounts()
		for _, dep := range []string{"shared-caches", "communication-costs"} {
			if counts["probe/"+dep] != 0 {
				t.Errorf("parallelism %d: dependent probe %s ran after cache-size failed", parallelism, dep)
			}
		}
		var pe *ProbeError
		if !errors.As(err, &pe) || pe.Probe != "cache-size" {
			t.Fatalf("parallelism %d: err = %v, want ProbeError{cache-size}", parallelism, err)
		}
		var ne *NoCacheLevelsError
		if !errors.As(err, &ne) || ne.Machine != "dempsey" {
			t.Fatalf("parallelism %d: err = %v, want NoCacheLevelsError", parallelism, err)
		}
	}
}

func TestRunProbesCancelledContext(t *testing.T) {
	s, err := NewSuite(topology.Dempsey(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunProbes(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// goldenJSON marshals a report with wall times zeroed: wall clocks
// differ between any two runs, while everything else in the report is
// deterministic.
func goldenJSON(t *testing.T, r *report.Report) string {
	t.Helper()
	clone := *r
	clone.Timings = append([]report.StageTiming(nil), r.Timings...)
	for i := range clone.Timings {
		clone.Timings[i].Wall = 0
	}
	data, err := json.Marshal(&clone)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestParallelMatchesSequentialAllModels is the engine's golden test:
// for every predefined machine model, a run whose probes fan their
// sweeps out over several workers merges into a report byte-identical
// (wall times aside) to the sequential run, at parallelism 2, 4 and
// NumCPU.
func TestParallelMatchesSequentialAllModels(t *testing.T) {
	models := topology.Models(2)
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "dunnington" || name == "finisterrae") {
				t.Skip("large machine")
			}
			// Allocations 2 halves the shared-cache sweep's averaging
			// work: the goldens compare runs against each other, so
			// detection-grade sampling is not needed here.
			opt := Options{Seed: 1, CommReps: 2, Allocations: 2, BWSizes: []int64{4 * topology.KB, 64 * topology.KB}}
			assertShardedGolden(t, func(parallelism int) string {
				opt.Parallelism = parallelism
				s, err := NewSuite(models[name], opt)
				if err != nil {
					t.Fatal(err)
				}
				r, err := s.RunProbes(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return goldenJSON(t, r)
			})
		})
	}
}

// TestEngineMatchesLegacySequentialGolden pins the engine's output to
// the exact report the pre-engine monolithic Suite.Run produced,
// stage by stage, on one machine (field-by-field, so a schema change
// shows up here too).
func TestEngineMatchesLegacySequentialGolden(t *testing.T) {
	m := topology.Dempsey()
	opt := Options{Seed: 1, CommReps: 2, BWSizes: []int64{4 * topology.KB, 256 * topology.KB}}
	s, err := NewSuite(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunProbes(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Reproduce the legacy fixed-order orchestration inline.
	legacy := &report.Report{
		Machine:      m.Name,
		ClockGHz:     m.ClockGHz,
		Nodes:        m.Nodes,
		CoresPerNode: m.CoresPerNode,
	}
	cal, err := McalibratorContext(context.Background(), m, 0, s.Options())
	if err != nil {
		t.Fatal(err)
	}
	levels := DetectCacheSizes(cal, m.PageBytes, s.Options())
	legacy.Timings = append(legacy.Timings, report.StageTiming{
		Stage: "cache-size", SimulatedProbe: timeDuration(m.CyclesToNS(cal.ProbeCycles)),
	})
	shared := sharedCaches(t, m, levels, s.Options())
	var sharedCycles float64
	for i, lvl := range levels {
		cr := report.CacheResult{Level: lvl.Level, SizeBytes: lvl.SizeBytes, Method: lvl.Method}
		if i < len(shared) {
			cr.SharedGroups = shared[i].Groups
			sharedCycles += shared[i].ProbeCycles
		}
		legacy.Caches = append(legacy.Caches, cr)
	}
	legacy.Timings = append(legacy.Timings, report.StageTiming{
		Stage: "shared-caches", SimulatedProbe: timeDuration(m.CyclesToNS(sharedCycles)),
	})
	memRes, memNS := memOverhead(t, m, s.Options())
	legacy.Memory = memRes
	legacy.Timings = append(legacy.Timings, report.StageTiming{
		Stage: "memory-overhead", SimulatedProbe: timeDuration(memNS),
	})
	commRes, commNS, err := CommunicationCostsContext(context.Background(), m, levels[0].SizeBytes, s.Options())
	if err != nil {
		t.Fatal(err)
	}
	legacy.Comm = commRes
	legacy.Timings = append(legacy.Timings, report.StageTiming{
		Stage: "communication-costs", SimulatedProbe: timeDuration(commNS),
	})

	if got, want := goldenJSON(t, r), goldenJSON(t, legacy); got != want {
		t.Errorf("engine diverges from legacy orchestration:\nengine: %s\nlegacy: %s", got, want)
	}
}
