package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"servet/internal/report"
	"servet/internal/topology"
)

func TestOptionsDigestScopesProbes(t *testing.T) {
	m := topology.Dempsey()
	base, err := NewSuite(m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Zero options and explicitly spelled defaults digest identically:
	// digests are computed on the effective options.
	spelled, err := NewSuite(m, Options{Seed: 1, CommReps: 25, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range registry {
		a, err := base.digest(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spelled.digest(p)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: default-filled digests differ: %s vs %s", p.Name(), a, b)
		}
	}

	// Changing a communication option invalidates only the
	// communication probe.
	tweaked, err := NewSuite(m, Options{Seed: 1, CommReps: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range registry {
		a, _ := base.digest(p)
		b, _ := tweaked.digest(p)
		if p.Name() == "communication-costs" {
			if a == b {
				t.Errorf("%s: CommReps change did not alter digest", p.Name())
			}
		} else if a != b {
			t.Errorf("%s: CommReps change leaked into digest", p.Name())
		}
	}

	// The seed feeds every probe's measurements.
	reseeded, err := NewSuite(m, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range registry {
		a, _ := base.digest(p)
		b, _ := reseeded.digest(p)
		if a == b {
			t.Errorf("%s: seed change did not alter digest", p.Name())
		}
	}

	if _, err := probeByName("no-such-probe"); err == nil {
		t.Error("unknown probe found")
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	// Allocations 2 halves the shared-cache sweep's averaging work;
	// the round trip compares a run against its own restoration, so
	// detection-grade sampling is not needed.
	s, err := NewSuite(topology.Dunnington(), Options{Seed: 1, CommReps: 2, Allocations: 2, BWSizes: []int64{4096, 65536}})
	if err != nil {
		t.Fatal(err)
	}
	fresh, prov, err := s.Run(context.Background(), nil, "cache-size", "shared-caches", "memory-overhead", "communication-costs", "tlb")
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range registry {
		part, ok := restore(p, fresh)
		if !ok {
			t.Fatalf("probe %s not restorable from its own report", p.Name())
		}
		if part.SimulatedProbe != timingFor(fresh, p.Name()) {
			t.Errorf("%s: restored simulated time %v, want %v", p.Name(), part.SimulatedProbe, timingFor(fresh, p.Name()))
		}
	}

	restored, rprov, err := s.Run(context.Background(), cachedReport(fresh, prov, ProbeNames()...), ProbeNames()...)
	if err != nil {
		t.Fatal(err)
	}
	if executed := ranProbes(rprov); len(executed) != 0 {
		t.Errorf("fully cached run executed %v", executed)
	}
	if len(restored.Caches) != len(fresh.Caches) ||
		restored.Caches[1].SizeBytes != fresh.Caches[1].SizeBytes ||
		len(restored.Caches[1].SharedGroups) != len(fresh.Caches[1].SharedGroups) {
		t.Errorf("caches diverge:\nfresh %+v\nrestored %+v", fresh.Caches, restored.Caches)
	}
	if restored.Memory.RefBandwidthGBs != fresh.Memory.RefBandwidthGBs ||
		len(restored.Memory.Levels) != len(fresh.Memory.Levels) {
		t.Errorf("memory diverges")
	}
	if restored.Comm.MessageBytes != fresh.Comm.MessageBytes ||
		len(restored.Comm.Layers) != len(fresh.Comm.Layers) {
		t.Errorf("comm diverges")
	}
	if len(restored.Timings) != len(fresh.Timings) {
		t.Errorf("timings: %d vs %d rows", len(restored.Timings), len(fresh.Timings))
	}
}

// TestRunPartialCacheExecutesRest: a cached report whose provenance
// covers only the cache-size probe still satisfies its dependents,
// which execute and produce the same sections as a fresh run.
func TestRunPartialCacheExecutesRest(t *testing.T) {
	opt := Options{Seed: 1, CommReps: 2, BWSizes: []int64{4096}}
	s, err := NewSuite(topology.Dempsey(), opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, prov, err := s.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, rprov, err := s.Run(context.Background(), cachedReport(fresh, prov, "cache-size"))
	if err != nil {
		t.Fatal(err)
	}
	executed := ranProbes(rprov)
	want := []string{"shared-caches", "memory-overhead", "communication-costs"}
	if len(executed) != len(want) {
		t.Fatalf("executed = %v, want %v", executed, want)
	}
	for i := range want {
		if executed[i] != want[i] {
			t.Fatalf("executed = %v, want %v", executed, want)
		}
	}
	if rep.Comm.MessageBytes != fresh.Comm.MessageBytes {
		t.Errorf("dependent probe did not see restored L1: %d vs %d",
			rep.Comm.MessageBytes, fresh.Comm.MessageBytes)
	}
}

// cachedReport returns a copy of a run's report, as a cache would
// hold it, whose provenance covers only the named probes.
func cachedReport(r *report.Report, prov []report.ProbeProvenance, names ...string) *report.Report {
	cp := r.Clone()
	for _, row := range prov {
		if slices.Contains(names, row.Probe) {
			cp.Provenance = append(cp.Provenance, row)
		}
	}
	return cp
}

// ranProbes lists the probes a run executed, in canonical order.
func ranProbes(prov []report.ProbeProvenance) []string {
	var ran []string
	for _, row := range prov {
		if row.Status == report.ProvenanceRan {
			ran = append(ran, row.Probe)
		}
	}
	return ran
}

// timingFor returns the simulated-probe time of one stage row.
func timingFor(r *report.Report, name string) time.Duration {
	for _, tm := range r.Timings {
		if tm.Stage == name {
			return tm.SimulatedProbe
		}
	}
	return 0
}
