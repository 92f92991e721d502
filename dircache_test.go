package servet_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"servet"
)

// TestDirCacheHeterogeneousSweep: one cache directory serves a sweep
// of different models — each machine gets its own per-fingerprint
// entry file, and a second sweep restores everything.
func TestDirCacheHeterogeneousSweep(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "reports")
	machines := []*servet.Machine{servet.Dempsey(), servet.Athlon3200()}

	reports, err := servet.Sweep(ctx, machines,
		servet.WithOptions(quickOpt), servet.WithCache(servet.NewDirCache(dir)))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}

	// One entry file per machine fingerprint.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("cache dir holds %d files, want 2", len(files))
	}

	// The warm sweep restores every probe on every machine.
	again, err := servet.Sweep(ctx, machines,
		servet.WithOptions(quickOpt), servet.WithCache(servet.NewDirCache(dir)))
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

// TestDirCacheLookupIsolated: entries are loaded fresh per Lookup, so
// caller mutations never reach the cache.
func TestDirCacheLookupIsolated(t *testing.T) {
	cache := servet.NewDirCache(t.TempDir())
	if err := cache.Store("sha256:abc", sampleReport("sha256:abc", 16<<10)); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Lookup("sha256:abc")
	if !ok {
		t.Fatal("entry missing")
	}
	got.Caches[0].SizeBytes = 1
	again, ok := cache.Lookup("sha256:abc")
	if !ok || again.Caches[0].SizeBytes != 16<<10 {
		t.Errorf("Lookup handed out shared state: %+v", again)
	}
}

// TestDirCacheMissAndRepair: a corrupt entry is a miss, and a session
// over the directory rewrites it.
func TestDirCacheMissAndRepair(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cache := servet.NewDirCache(dir)
	m := servet.Dempsey()
	if err := os.WriteFile(cache.Path()+"/"+"junk.json", []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Lookup(m.Fingerprint()); ok {
		t.Fatal("phantom entry")
	}
	s, err := servet.NewSession(m, servet.WithOptions(quickOpt), servet.WithCache(servet.NewDirCache(dir)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, "cache-size"); err != nil {
		t.Fatal(err)
	}
	if back, ok := cache.Lookup(m.Fingerprint()); !ok || back.Fingerprint != m.Fingerprint() {
		t.Errorf("entry not written: %+v ok=%v", back, ok)
	}
}
