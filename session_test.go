package servet_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"servet"
	"servet/internal/obs"
)

// quickOpt keeps the simulated sweeps fast in tests.
var quickOpt = servet.Options{Seed: 1, CommReps: 2, BWSizes: []int64{4096, 65536}}

// canonicalJSON renders a report with its volatile fields (host wall
// times, provenance timestamps) zeroed, so two runs of the same
// probes compare byte-identical.
func canonicalJSON(t *testing.T, r *servet.Report) string {
	t.Helper()
	cp := r.Clone()
	for i := range cp.Timings {
		cp.Timings[i].Wall = 0
	}
	for i := range cp.Provenance {
		cp.Provenance[i].Timestamp = time.Time{}
		cp.Provenance[i].Wall = 0
	}
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// measuredJSON additionally drops the provenance status column: a
// cached run reports "cached" where a fresh run reports "ran", but
// the measured sections must be identical.
func measuredJSON(t *testing.T, r *servet.Report) string {
	t.Helper()
	cp := r.Clone()
	cp.Provenance = nil
	for i := range cp.Timings {
		cp.Timings[i].Wall = 0
	}
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sectionsJSON renders only the measured sections (caches, memory,
// comm, tlb), dropping timings and provenance entirely.
func sectionsJSON(t *testing.T, r *servet.Report) string {
	t.Helper()
	cp := r.Clone()
	cp.Timings = nil
	cp.Provenance = nil
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// statuses flattens a report's provenance into probe->status.
func statuses(r *servet.Report) map[string]string {
	out := map[string]string{}
	for _, p := range r.Provenance {
		out[p.Probe] = p.Status
	}
	return out
}

func TestSessionRunStampsProvenance(t *testing.T) {
	m := servet.Dempsey()
	s, err := servet.NewSession(m, servet.WithOptions(quickOpt))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fingerprint != m.Fingerprint() || rep.Fingerprint != s.Fingerprint() {
		t.Errorf("fingerprint = %q, machine %q", rep.Fingerprint, m.Fingerprint())
	}
	if rep.Schema == 0 {
		t.Error("schema not stamped")
	}
	if len(rep.Provenance) != 4 {
		t.Fatalf("provenance rows = %d, want 4", len(rep.Provenance))
	}
	for _, p := range rep.Provenance {
		if p.Status != servet.ProvenanceRan {
			t.Errorf("%s: status %q on a cache-less run", p.Probe, p.Status)
		}
		if p.OptionsDigest == "" || p.Timestamp.IsZero() {
			t.Errorf("%s: incomplete provenance %+v", p.Probe, p)
		}
		if p.Wall <= 0 {
			t.Errorf("%s: no wall-clock duration recorded", p.Probe)
		}
	}
}

// TestSessionIncrementalRerun is the acceptance scenario: run a
// session against a cache file, re-run with one probe's options
// changed, and verify that only that probe (plus its dependents)
// executes while the merged report equals a fresh full run.
func TestSessionIncrementalRerun(t *testing.T) {
	ctx := context.Background()
	m := servet.Dempsey()
	path := filepath.Join(t.TempDir(), "servet.json")

	run := func(opt servet.Options) *servet.Report {
		t.Helper()
		s, err := servet.NewSession(m, servet.WithOptions(opt), servet.WithCache(servet.NewFileCache(path)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Cold run: everything measured, cache file written.
	first := run(quickOpt)
	for probe, st := range statuses(first) {
		if st != servet.ProvenanceRan {
			t.Errorf("cold run: %s status %q", probe, st)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}

	// Same options: everything restored, nothing re-measured, and the
	// report's measured content is identical.
	second := run(quickOpt)
	for probe, st := range statuses(second) {
		if st != servet.ProvenanceCached {
			t.Errorf("warm run: %s status %q", probe, st)
		}
	}
	if measuredJSON(t, second) != measuredJSON(t, first) {
		t.Error("warm run diverges from cold run")
	}

	// Change only the communication options: exactly that probe
	// re-runs; cache sizes, sharing and memory stay cached.
	commOpt := quickOpt
	commOpt.CommReps = 3
	third := run(commOpt)
	want := map[string]string{
		"cache-size":          servet.ProvenanceCached,
		"shared-caches":       servet.ProvenanceCached,
		"memory-overhead":     servet.ProvenanceCached,
		"communication-costs": servet.ProvenanceRan,
	}
	if got := statuses(third); len(got) != len(want) {
		t.Fatalf("provenance = %v", got)
	} else {
		for probe, st := range want {
			if got[probe] != st {
				t.Errorf("comm-change rerun: %s = %q, want %q", probe, got[probe], st)
			}
		}
	}
	// The incrementally merged report equals a fresh, cache-less full
	// run under the same options.
	freshSession, err := servet.NewSession(m, servet.WithOptions(commOpt))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := freshSession.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if measuredJSON(t, third) != measuredJSON(t, fresh) {
		t.Errorf("incremental report diverges from fresh run:\n%s\nvs\n%s",
			measuredJSON(t, third), measuredJSON(t, fresh))
	}
	// Cached sections keep their original measurement timestamps and
	// wall-clock costs.
	if !third.ProvenanceFor("cache-size").Timestamp.Equal(first.ProvenanceFor("cache-size").Timestamp) {
		t.Error("cached section lost its measurement timestamp")
	}
	if third.ProvenanceFor("cache-size").Wall != first.ProvenanceFor("cache-size").Wall {
		t.Error("cached section lost its measurement wall-clock cost")
	}
	if third.ProvenanceFor("cache-size").Wall <= 0 {
		t.Error("measured section recorded no wall-clock cost")
	}

	// Change a cache-size option: the probe and both dependents
	// (shared-caches, communication-costs) re-run; memory stays cached.
	calOpt := commOpt
	calOpt.Allocations = 3
	fourth := run(calOpt)
	want = map[string]string{
		"cache-size":          servet.ProvenanceRan,
		"shared-caches":       servet.ProvenanceRan,
		"memory-overhead":     servet.ProvenanceCached,
		"communication-costs": servet.ProvenanceRan,
	}
	for probe, st := range want {
		if statuses(fourth)[probe] != st {
			t.Errorf("cache-size-change rerun: %s = %q, want %q", probe, statuses(fourth)[probe], st)
		}
	}
}

// TestSubsetRunPreservesCacheEntry: running a probe subset against a
// populated cache must not clobber the other probes' sections — the
// install-time file keeps accumulating.
func TestSubsetRunPreservesCacheEntry(t *testing.T) {
	ctx := context.Background()
	m := servet.Dempsey()
	path := filepath.Join(t.TempDir(), "servet.json")

	session := func(opt servet.Options) *servet.Session {
		t.Helper()
		s, err := servet.NewSession(m, servet.WithOptions(opt), servet.WithCache(servet.NewFileCache(path)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	full, err := session(quickOpt).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// A tlb-only run returns (and stores) the accumulated report: the
	// four suite sections ride along as cached leftovers.
	sub, err := session(quickOpt).Run(ctx, "tlb")
	if err != nil {
		t.Fatal(err)
	}
	st := statuses(sub)
	if st["tlb"] != servet.ProvenanceRan {
		t.Errorf("tlb status %q", st["tlb"])
	}
	for _, probe := range []string{"cache-size", "shared-caches", "memory-overhead", "communication-costs"} {
		if st[probe] != servet.ProvenanceCached {
			t.Errorf("leftover %s status %q, want carried as cached", probe, st[probe])
		}
	}
	if sub.Memory.RefBandwidthGBs != full.Memory.RefBandwidthGBs ||
		sub.Comm.MessageBytes != full.Comm.MessageBytes ||
		len(sub.Caches) != len(full.Caches) {
		t.Error("subset run lost previously measured sections")
	}

	// The next full run restores everything from the file.
	again, err := session(quickOpt).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for probe, s := range statuses(again) {
		if s != servet.ProvenanceCached {
			t.Errorf("full run after subset: %s status %q", probe, s)
		}
	}
	// The scientific sections match the original full run (the
	// accumulated report additionally carries the tlb row).
	if sectionsJSON(t, again) != sectionsJSON(t, full) {
		t.Error("accumulated report diverges from the original full run")
	}

	// A subset run whose options invalidate a leftover's dependency
	// drops that leftover (stale) but keeps independent ones.
	calOpt := quickOpt
	calOpt.Allocations = 3
	stale, err := session(calOpt).Run(ctx, "shared-caches")
	if err != nil {
		t.Fatal(err)
	}
	st = statuses(stale)
	if st["cache-size"] != servet.ProvenanceRan || st["shared-caches"] != servet.ProvenanceRan {
		t.Errorf("closure statuses: %v", st)
	}
	if st["memory-overhead"] != servet.ProvenanceCached {
		t.Errorf("independent leftover dropped: %v", st)
	}
	if _, ok := st["communication-costs"]; ok {
		t.Errorf("stale leftover kept: %v", st)
	}
	// ... so the next full run re-measures exactly the dropped probe.
	final, err := session(calOpt).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st = statuses(final)
	if st["communication-costs"] != servet.ProvenanceRan {
		t.Errorf("dropped leftover not re-measured: %v", st)
	}
	for _, probe := range []string{"cache-size", "shared-caches", "memory-overhead"} {
		if st[probe] != servet.ProvenanceCached {
			t.Errorf("%s status %q after accumulating runs", probe, st[probe])
		}
	}
}

// TestSessionCacheWalk pins the cached-report walk step by step on
// one MemoryCache: the ordered timing and provenance rows (sections
// carried from the entry sit in canonical order next to the ones this
// run restored or measured), zero wall time on every row that did not
// run, the original timestamp and wall cost on every cached row, the
// traced restored/ran counters (carried sections count in neither),
// and a stored entry equal to the returned report.
func TestSessionCacheWalk(t *testing.T) {
	ctx := context.Background()
	m := servet.Dempsey()
	cache := servet.NewMemoryCache()
	const (
		ran    = servet.ProvenanceRan
		cached = servet.ProvenanceCached
	)
	type row struct{ probe, status string }

	commOpt := quickOpt
	commOpt.CommReps = 3
	calOpt := commOpt
	calOpt.Allocations = 3

	// origin remembers the provenance of each section's last
	// measurement; cached rows must keep it.
	origin := map[string]servet.ProbeProvenance{}
	step := func(name string, opt servet.Options, probes []string, want []row, restored, executed int64) {
		t.Helper()
		s, err := servet.NewSession(m, servet.WithOptions(opt), servet.WithCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		rep, err := s.Run(obs.WithTracer(ctx, tr), probes...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Timings) != len(want) || len(rep.Provenance) != len(want) {
			t.Fatalf("%s: %d timing and %d provenance rows, want %d", name, len(rep.Timings), len(rep.Provenance), len(want))
		}
		for i, w := range want {
			tm, p := rep.Timings[i], rep.Provenance[i]
			if tm.Stage != w.probe || p.Probe != w.probe || p.Status != w.status {
				t.Errorf("%s: row %d = (%s, %s/%s), want (%s, %s)", name, i, tm.Stage, p.Probe, p.Status, w.probe, w.status)
				continue
			}
			switch w.status {
			case ran:
				if tm.Wall <= 0 || p.Wall != tm.Wall {
					t.Errorf("%s: %s ran with timing wall %v, provenance wall %v", name, w.probe, tm.Wall, p.Wall)
				}
				origin[w.probe] = p
			case cached:
				if tm.Wall != 0 {
					t.Errorf("%s: %s did not run but has wall %v", name, w.probe, tm.Wall)
				}
				o := origin[w.probe]
				if !p.Timestamp.Equal(o.Timestamp) || p.Wall != o.Wall || p.OptionsDigest != o.OptionsDigest {
					t.Errorf("%s: cached %s provenance %+v, want the original %+v", name, w.probe, p, o)
				}
			}
		}
		if got := tr.Counter(obs.CounterProbesRestored); got != restored {
			t.Errorf("%s: probes restored = %d, want %d", name, got, restored)
		}
		if got := tr.Counter(obs.CounterProbesRan); got != executed {
			t.Errorf("%s: probes ran = %d, want %d", name, got, executed)
		}
		stored, ok := cache.Lookup(s.Fingerprint())
		if !ok {
			t.Fatalf("%s: no cache entry stored", name)
		}
		a, err := json.Marshal(stored)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: stored entry differs from the returned report:\n%s\nvs\n%s", name, a, b)
		}
	}

	step("cold", quickOpt, nil, []row{
		{"cache-size", ran}, {"shared-caches", ran}, {"memory-overhead", ran}, {"communication-costs", ran},
	}, 0, 4)
	step("warm", quickOpt, nil, []row{
		{"cache-size", cached}, {"shared-caches", cached}, {"memory-overhead", cached}, {"communication-costs", cached},
	}, 4, 0)
	step("comm change", commOpt, nil, []row{
		{"cache-size", cached}, {"shared-caches", cached}, {"memory-overhead", cached}, {"communication-costs", ran},
	}, 3, 1)
	// The four suite sections are carried from the entry around the
	// tlb-only closure.
	step("tlb subset", commOpt, []string{"tlb"}, []row{
		{"cache-size", cached}, {"shared-caches", cached}, {"memory-overhead", cached}, {"communication-costs", cached},
		{"tlb", ran},
	}, 0, 1)
	// Allocations feeds cache-size, so communication-costs (measured
	// against the old levels) is dropped; memory-overhead and tlb do
	// not depend on it and are carried.
	step("shared-caches subset", calOpt, []string{"shared-caches"}, []row{
		{"cache-size", ran}, {"shared-caches", ran}, {"memory-overhead", cached}, {"tlb", cached},
	}, 0, 2)
	step("full after subset", calOpt, nil, []row{
		{"cache-size", cached}, {"shared-caches", cached}, {"memory-overhead", cached}, {"communication-costs", ran},
		{"tlb", cached},
	}, 3, 1)

	// An entry whose memory section is zeroed while its provenance row
	// stays: the digest matches, but restoring refuses the empty
	// section, so the probe re-runs.
	ent, ok := cache.Lookup(m.Fingerprint())
	if !ok {
		t.Fatal("no cache entry")
	}
	ent.Memory = servet.MemoryResult{}
	if err := cache.Store(m.Fingerprint(), ent); err != nil {
		t.Fatal(err)
	}
	step("zeroed memory section", calOpt, nil, []row{
		{"cache-size", cached}, {"shared-caches", cached}, {"memory-overhead", ran}, {"communication-costs", cached},
		{"tlb", cached},
	}, 3, 1)
}

// TestSessionSeedChangeInvalidatesEverything: the seed feeds every
// probe, so a reseeded session re-measures the whole suite.
func TestSessionSeedChangeInvalidatesEverything(t *testing.T) {
	ctx := context.Background()
	cache := servet.NewMemoryCache()
	m := servet.Dempsey()
	s1, err := servet.NewSession(m, servet.WithOptions(quickOpt), servet.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(ctx); err != nil {
		t.Fatal(err)
	}
	s2, err := servet.NewSession(m, servet.WithOptions(quickOpt), servet.WithCache(cache), servet.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s2.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for probe, st := range statuses(rep) {
		if st != servet.ProvenanceRan {
			t.Errorf("reseeded run: %s status %q", probe, st)
		}
	}
}

// TestCacheIgnoresOtherMachines: a cache entry for one machine never
// serves another model.
func TestCacheIgnoresOtherMachines(t *testing.T) {
	ctx := context.Background()
	cache := servet.NewMemoryCache()
	s1, err := servet.NewSession(servet.Dempsey(), servet.WithOptions(quickOpt), servet.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(ctx); err != nil {
		t.Fatal(err)
	}
	s2, err := servet.NewSession(servet.Athlon3200(), servet.WithOptions(quickOpt), servet.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s2.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for probe, st := range statuses(rep) {
		if st != servet.ProvenanceRan {
			t.Errorf("other machine: %s status %q", probe, st)
		}
	}
}

// TestFileCacheCorruptIsMiss: a clobbered cache file degrades to a
// full re-measurement, not an error.
func TestFileCacheCorruptIsMiss(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "servet.json")
	if err := os.WriteFile(path, []byte("{{{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := servet.NewSession(servet.Dempsey(), servet.WithOptions(quickOpt), servet.WithCache(servet.NewFileCache(path)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for probe, st := range statuses(rep) {
		if st != servet.ProvenanceRan {
			t.Errorf("corrupt cache: %s status %q", probe, st)
		}
	}
	// The run repaired the file.
	back, err := servet.LoadReport(path)
	if err != nil {
		t.Fatalf("cache file not rewritten: %v", err)
	}
	if back.Fingerprint != s.Fingerprint() {
		t.Errorf("rewritten fingerprint = %q", back.Fingerprint)
	}
}

func TestSessionUnknownProbe(t *testing.T) {
	s, err := servet.NewSession(servet.Dempsey(), servet.WithOptions(quickOpt))
	if err != nil {
		t.Fatal(err)
	}
	var ue *servet.UnknownProbeError
	if _, err := s.Run(context.Background(), "no-such-probe"); !errors.As(err, &ue) {
		t.Errorf("err = %v, want *UnknownProbeError", err)
	}
}

func TestSessionValidatesMachine(t *testing.T) {
	bad := servet.Dempsey()
	bad.CoresPerNode = 0
	if _, err := servet.NewSession(bad); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestSweep(t *testing.T) {
	ctx := context.Background()
	machines := []*servet.Machine{servet.Dempsey(), servet.Athlon3200()}
	cache := servet.NewMemoryCache()
	reports, err := servet.Sweep(ctx, machines,
		servet.WithOptions(quickOpt), servet.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for i, rep := range reports {
		if rep.Machine != machines[i].Name {
			t.Errorf("report %d is for %q, want %q", i, rep.Machine, machines[i].Name)
		}
		if rep.Fingerprint != machines[i].Fingerprint() {
			t.Errorf("report %d fingerprint mismatch", i)
		}
	}

	// A second sweep over the shared cache restores everything.
	again, err := servet.Sweep(ctx, machines,
		servet.WithOptions(quickOpt), servet.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range again {
		for probe, st := range statuses(rep) {
			if st != servet.ProvenanceCached {
				t.Errorf("warm sweep machine %d: %s status %q", i, probe, st)
			}
		}
		if measuredJSON(t, rep) != measuredJSON(t, reports[i]) {
			t.Errorf("warm sweep machine %d diverges", i)
		}
	}
}

// TestSweepSharedFileCacheRefusesClobber: a heterogeneous Sweep
// sharing one FileCache instance fails with a *FingerprintMismatchError
// for the machine that lost the race, and the file holds exactly the
// winner's report — the cache's lock makes the fingerprint check and
// the write one step, so no session overwrites another's entry.
func TestSweepSharedFileCacheRefusesClobber(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "servet.json")
	machines := []*servet.Machine{servet.Dempsey(), servet.Athlon3200()}
	_, err := servet.Sweep(ctx, machines, servet.WithOptions(quickOpt),
		servet.WithParallelism(2), servet.WithCache(servet.NewFileCache(path)))
	var se *servet.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	var fe *servet.FingerprintMismatchError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want it to wrap *FingerprintMismatchError", err)
	}

	loser, winner := machines[0], machines[1]
	if se.Machine != loser.Name {
		loser, winner = winner, loser
	}
	if fe.Have != winner.Fingerprint() || fe.Want != loser.Fingerprint() {
		t.Fatalf("failing machine %s, mismatch %+v: want %s's entry kept and %s's refused",
			se.Machine, fe, winner.Name, loser.Name)
	}
	kept, err := servet.LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := servet.NewSession(winner, servet.WithOptions(quickOpt))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ses.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Fingerprint != fe.Have || measuredJSON(t, kept) != measuredJSON(t, want) {
		t.Errorf("cache file does not hold exactly %s's report", winner.Name)
	}
}

func TestSweepReportsFailingMachine(t *testing.T) {
	bad := servet.Athlon3200()
	bad.ClockGHz = 0
	_, err := servet.Sweep(context.Background(),
		[]*servet.Machine{servet.Dempsey(), bad}, servet.WithOptions(quickOpt))
	var se *servet.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if se.Machine != "athlon3200" {
		t.Errorf("failing machine = %q", se.Machine)
	}
}

func TestSweepEmpty(t *testing.T) {
	reports, err := servet.Sweep(context.Background(), nil)
	if err != nil || reports != nil {
		t.Errorf("empty sweep = %v, %v", reports, err)
	}
}

// TestWarmCacheSpeedup pins the acceptance bound: a fully cached
// full-suite run is at least 5x faster than the cold run (in
// practice it is orders of magnitude faster — restoration runs no
// probe at all).
func TestWarmCacheSpeedup(t *testing.T) {
	ctx := context.Background()
	cache := servet.NewMemoryCache()
	s, err := servet.NewSession(servet.Dempsey(), servet.WithOptions(quickOpt), servet.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(t0)

	t1 := time.Now()
	rep, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	warm := time.Since(t1)

	for probe, st := range statuses(rep) {
		if st != servet.ProvenanceCached {
			t.Fatalf("warm run executed %s", probe)
		}
	}
	if warm*5 > cold {
		t.Errorf("warm run %v not ≥5x faster than cold %v", warm, cold)
	}
}
