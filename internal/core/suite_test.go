package core

import (
	"context"
	"strings"
	"testing"

	"servet/internal/topology"
)

func TestSuiteRejectsInvalidMachine(t *testing.T) {
	m := topology.Dempsey()
	m.ClockGHz = 0
	if _, err := NewSuite(m, Options{}); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestSuiteAccessors(t *testing.T) {
	m := topology.Dempsey()
	s, err := NewSuite(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine() != m {
		t.Error("Machine accessor broken")
	}
	if s.Options().StrideBytes != 1024 {
		t.Errorf("defaults not applied: stride = %d", s.Options().StrideBytes)
	}
}

// TestSuiteRunDempsey runs the whole pipeline on the smallest
// multi-core paper machine and checks the report end to end.
func TestSuiteRunDempsey(t *testing.T) {
	m := topology.Dempsey()
	s, err := NewSuite(m, Options{Seed: 1, CommReps: 2, BWSizes: []int64{4 * topology.KB, 256 * topology.KB}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunProbes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Machine != "dempsey" || r.Nodes != 1 || r.CoresPerNode != 2 {
		t.Errorf("header = %+v", r)
	}
	if len(r.Caches) != 2 {
		t.Fatalf("caches = %+v", r.Caches)
	}
	if r.Caches[0].SizeBytes != 16*topology.KB || r.Caches[1].SizeBytes != 2*topology.MB {
		t.Errorf("sizes = %d, %d", r.Caches[0].SizeBytes, r.Caches[1].SizeBytes)
	}
	for _, c := range r.Caches {
		if !c.Private() {
			t.Errorf("L%d should be private: %v", c.Level, c.SharedGroups)
		}
	}
	// Dempsey's two cores share the FSB: one overhead level.
	if len(r.Memory.Levels) != 1 {
		t.Errorf("memory levels = %+v", r.Memory.Levels)
	}
	// One intra-node comm layer, message size = detected L1.
	if r.Comm.MessageBytes != 16*topology.KB {
		t.Errorf("message bytes = %d", r.Comm.MessageBytes)
	}
	if len(r.Comm.Layers) != 1 {
		t.Errorf("comm layers = %+v", r.Comm.Layers)
	}
	// Table I: all four stages timed, with simulated probe durations.
	if len(r.Timings) != 4 {
		t.Fatalf("timings = %+v", r.Timings)
	}
	wantStages := []string{"cache-size", "shared-caches", "memory-overhead", "communication-costs"}
	for i, st := range r.Timings {
		if st.Stage != wantStages[i] {
			t.Errorf("stage %d = %s, want %s", i, st.Stage, wantStages[i])
		}
		if st.SimulatedProbe <= 0 {
			t.Errorf("stage %s missing simulated time", st.Stage)
		}
	}
}

// TestSuiteRunSMTQuad covers a machine with shared L1 and L2 end to
// end.
func TestSuiteRunSMTQuad(t *testing.T) {
	m := topology.SMTQuad()
	s, err := NewSuite(m, Options{Seed: 1, CommReps: 2, BWSizes: []int64{4 * topology.KB}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunProbes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	l1 := r.CacheLevel(1)
	if l1 == nil || len(l1.SharedGroups) != 2 {
		t.Errorf("L1 sharing = %+v", l1)
	}
	l2 := r.CacheLevel(2)
	if l2 == nil || len(l2.SharedGroups) != 1 {
		t.Errorf("L2 sharing = %+v", l2)
	}
	if r.CacheLevel(9) != nil {
		t.Error("phantom cache level")
	}
}

// TestSuiteDeterministic: two runs with the same seed give identical
// reports.
func TestSuiteDeterministic(t *testing.T) {
	run := func() string {
		m := topology.Dempsey()
		s, err := NewSuite(m, Options{Seed: 7, CommReps: 2, BWSizes: []int64{8 * topology.KB}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.RunProbes(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, c := range r.Caches {
			sb.WriteString(c.Method)
			sb.WriteByte('-')
		}
		for _, l := range r.Comm.Layers {
			sb.WriteString(l.Name)
		}
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic suite: %q vs %q", a, b)
	}
}

func TestPerturbAtIdentityAtZeroSigma(t *testing.T) {
	if perturbAt(42, 0, 1, noiseComm, 0, 0) != 42 {
		t.Error("zero-sigma perturbAt must be identity")
	}
	v := perturbAt(100, 0.05, 1, noiseComm, 0, 0)
	if v <= 0 {
		t.Errorf("perturbed value %g", v)
	}
}

// TestPerturbAtStateless: the perturbation of one measurement depends
// only on its keys — not on any draw order — so sharded sweeps apply
// the same noise a sequential sweep would.
func TestPerturbAtStateless(t *testing.T) {
	a := perturbAt(100, 0.05, 7, noiseComm, commNoiseLatency, 3, 0)
	b := perturbAt(100, 0.05, 7, noiseComm, commNoiseLatency, 3, 0)
	if a != b {
		t.Errorf("same keys drew different noise: %g vs %g", a, b)
	}
	if c := perturbAt(100, 0.05, 7, noiseComm, commNoiseLatency, 4, 0); c == a {
		t.Error("different pair index drew identical noise")
	}
	if d := perturbAt(100, 0.05, 8, noiseComm, commNoiseLatency, 3, 0); d == a {
		t.Error("different seed drew identical noise")
	}
	if e := perturbAt(100, 0.05, 7, noiseMcal, commNoiseLatency, 3, 0); e == a {
		t.Error("different probe family drew identical noise")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(topology.Dempsey())
	if o.MaxCacheBytes != topology.Dempsey().SuggestedMaxProbeBytes {
		t.Errorf("MaxCacheBytes = %d", o.MaxCacheBytes)
	}
	if o.StrideBytes != 1024 {
		t.Errorf("paper defaults wrong: %+v", o)
	}
	if len(o.BWSizes) == 0 {
		t.Error("no bandwidth sizes")
	}
	o2 := Options{}.withDefaults(nil)
	if o2.MaxCacheBytes != 48*topology.MB {
		t.Errorf("fallback MaxCacheBytes = %d", o2.MaxCacheBytes)
	}
}

// TestSuiteRunNehalem2S covers the synthetic NUMA machine: per-socket
// shared L3 and per-socket memory controllers (the inverse collision
// structure of Dunnington's single FSB).
func TestSuiteRunNehalem2S(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	m := topology.Nehalem2S()
	s, err := NewSuite(m, Options{Seed: 1, CommReps: 2, BWSizes: []int64{4 * topology.KB, 256 * topology.KB}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunProbes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{32 * topology.KB, 256 * topology.KB, 8 * topology.MB}
	if len(r.Caches) != 3 {
		t.Fatalf("caches = %+v", r.Caches)
	}
	for i, c := range r.Caches {
		if c.SizeBytes != want[i] {
			t.Errorf("L%d = %d, want %d", c.Level, c.SizeBytes, want[i])
		}
	}
	// L3 shared per socket.
	l3 := r.CacheLevel(3)
	if len(l3.SharedGroups) != 2 || len(l3.SharedGroups[0]) != 4 {
		t.Errorf("L3 groups = %v, want two sockets of 4", l3.SharedGroups)
	}
	if !r.CacheLevel(1).Private() || !r.CacheLevel(2).Private() {
		t.Error("L1/L2 should be private")
	}
	// Memory: one overhead level whose groups are the sockets
	// (cross-socket pairs have independent controllers).
	if len(r.Memory.Levels) != 1 {
		t.Fatalf("memory levels = %+v", r.Memory.Levels)
	}
	groups := r.Memory.Levels[0].Groups
	if len(groups) != 2 || len(groups[0]) != 4 || groups[0][0] != 0 || groups[1][0] != 4 {
		t.Errorf("memory groups = %v, want the two sockets", groups)
	}
	// Comm: same-L3 and cross-socket layers.
	names := map[string]bool{}
	for _, l := range r.Comm.Layers {
		names[l.Name] = true
	}
	if !names["same-L3"] || !names["cross-socket"] {
		t.Errorf("comm layers = %v", names)
	}
}

// TestSuiteRunUnicore: the full pipeline must survive a machine with a
// single core — no pairs to probe anywhere, every result degenerate
// but well-formed.
func TestSuiteRunUnicore(t *testing.T) {
	m := topology.Athlon3200()
	s, err := NewSuite(m, Options{Seed: 1, CommReps: 2, BWSizes: []int64{4 * topology.KB}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunProbes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Caches) != 2 {
		t.Fatalf("caches = %+v", r.Caches)
	}
	for _, c := range r.Caches {
		if !c.Private() {
			t.Errorf("unicore L%d shared: %v", c.Level, c.SharedGroups)
		}
	}
	if len(r.Memory.Levels) != 0 {
		t.Errorf("unicore overhead levels: %+v", r.Memory.Levels)
	}
	if len(r.Comm.Layers) != 0 {
		t.Errorf("unicore comm layers: %+v", r.Comm.Layers)
	}
	// The summary must still render.
	if r.Summary() == "" {
		t.Error("empty summary")
	}
}

// TestSuiteRunTLBBox: a machine with one cache level and a TLB goes
// through the full pipeline unharmed.
func TestSuiteRunTLBBox(t *testing.T) {
	m := topology.TLBBox()
	s, err := NewSuite(m, Options{Seed: 1, CommReps: 2, BWSizes: []int64{4 * topology.KB}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunProbes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Caches) != 1 || r.Caches[0].SizeBytes != 64*topology.KB {
		t.Errorf("caches = %+v", r.Caches)
	}
}
