package servet_test

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"servet"
	"servet/internal/obs"
)

// workRow is one row of the work ledger: what one probe cost the
// simulator on one model, counted by the engine's tracer. Simulated is
// the accesses neither filled, derived, replayed nor stacked — the ones
// the simulator still issued one by one. InstallVisits is the (access,
// level) pairs the probe looked at to install cache lines. Pages and
// Retries are the pages the probe's arrays were placed on and the
// taken candidate frames those placements passed over.
type workRow struct {
	Model         string `json:"model"`
	Probe         string `json:"probe"`
	Accesses      int64  `json:"memsys.accesses"`
	Filled        int64  `json:"memsys.accesses_filled"`
	Derived       int64  `json:"memsys.accesses_derived"`
	Replayed      int64  `json:"memsys.accesses_replayed"`
	Stacked       int64  `json:"memsys.accesses_stacked"`
	Simulated     int64  `json:"simulated"`
	InstallVisits int64  `json:"memsys.install_visits"`
	Pages         int64  `json:"memsys.pages_placed"`
	Retries       int64  `json:"memsys.placement_retries"`
	Measurements  int64  `json:"sweep.measurements"`
	Resets        int64  `json:"memsys.instance.reset"`
}

// workLedger measures every probe of the registry on every model of
// servet.Models(2), at seed 1 and the paper's default options. Each
// probe runs alone: the session runs the probes in canonical order
// through one MemoryCache, so a probe's dependencies, which come
// before it, are restored from the cache instead of running again.
func workLedger(t *testing.T) []workRow {
	t.Helper()
	models := servet.Models(2)
	var rows []workRow
	for _, name := range slices.Sorted(maps.Keys(models)) {
		s, err := servet.NewSession(models[name], servet.WithSeed(1), servet.WithCache(servet.NewMemoryCache()))
		if err != nil {
			t.Fatal(err)
		}
		for _, probe := range servet.ProbeNames() {
			tr := obs.New()
			if _, err := s.Run(obs.WithTracer(context.Background(), tr), probe); err != nil {
				t.Fatalf("%s %s: %v", name, probe, err)
			}
			if ran := tr.Counter(obs.CounterProbesRan); ran != 1 {
				t.Fatalf("%s %s: %d probes ran, want the probe alone", name, probe, ran)
			}
			r := workRow{
				Model:         name,
				Probe:         probe,
				Accesses:      tr.Counter(obs.CounterMemsysAccesses),
				Filled:        tr.Counter(obs.CounterMemsysFilled),
				Derived:       tr.Counter(obs.CounterMemsysDerived),
				Replayed:      tr.Counter(obs.CounterMemsysReplayed),
				Stacked:       tr.Counter(obs.CounterMemsysStacked),
				InstallVisits: tr.Counter(obs.CounterMemsysInstallVisits),
				Pages:         tr.Counter(obs.CounterMemsysPagesPlaced),
				Retries:       tr.Counter(obs.CounterMemsysPlacementRetries),
				Measurements:  tr.Counter(obs.CounterSweepMeasurements),
				Resets:        tr.Counter(obs.CounterMemsysReset),
			}
			r.Simulated = r.Accesses - r.Filled - r.Derived - r.Replayed - r.Stacked
			rows = append(rows, r)
		}
	}
	return rows
}

// TestWorkLedger pins testdata/work.json, the simulator's work per
// model and probe: it fails when a row's simulated accesses grow, and
// when its install visits grow, and when any other cell moves —
// a change that proves more accesses away moves the filled, derived,
// replayed or stacked cells, one that installs them with fewer visits
// moves the install column, and either is recorded by re-running with
// -update.
// Counts do not depend on parallelism.
func TestWorkLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every probe of every model at full fidelity")
	}
	got := workLedger(t)
	path := filepath.Join("testdata", "work.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []workRow
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d ledger rows, %s has %d", len(got), path, len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case g.Model != w.Model || g.Probe != w.Probe:
			t.Fatalf("row %d is %s %s, %s has %s %s", i, g.Model, g.Probe, path, w.Model, w.Probe)
		case g.Simulated > w.Simulated:
			t.Errorf("%s %s: simulated accesses grew from %d to %d", g.Model, g.Probe, w.Simulated, g.Simulated)
		case g.InstallVisits > w.InstallVisits:
			t.Errorf("%s %s: install visits grew from %d to %d", g.Model, g.Probe, w.InstallVisits, g.InstallVisits)
		case g != w:
			t.Errorf("%s %s: work moved (re-run with -update for an intended change):\n got %+v\nwant %+v", g.Model, g.Probe, g, w)
		}
	}
}
