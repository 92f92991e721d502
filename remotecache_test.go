package servet_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"servet"
	"servet/internal/regproto"
	"servet/internal/server"
)

// startRegistry spins up an in-process probe-registry server over a
// fresh in-memory store — the cluster head node of the tests.
func startRegistry(t *testing.T) (*server.Registry, *httptest.Server) {
	t.Helper()
	reg := server.New(server.NewMemStore())
	ts := httptest.NewServer(reg)
	t.Cleanup(ts.Close)
	return reg, ts
}

// remoteCache builds a RemoteCache on the registry at url.
func remoteCache(t *testing.T, url string) *servet.RemoteCache {
	t.Helper()
	rc, err := servet.NewRemoteCache(url)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func TestNewRemoteCacheValidatesURL(t *testing.T) {
	for _, bad := range []string{"", "not a url\x7f", "ftp://host", "http://", "bogus://x"} {
		if _, err := servet.NewRemoteCache(bad); err == nil {
			t.Errorf("NewRemoteCache(%q) accepted", bad)
		}
	}
	if _, err := servet.NewRemoteCache("http://head-node:8077/"); err != nil {
		t.Errorf("valid url rejected: %v", err)
	}
	// A reverse-proxy path prefix is preserved, not silently dropped.
	c, err := servet.NewRemoteCache("http://head-node/servet/")
	if err != nil {
		t.Fatalf("prefixed url rejected: %v", err)
	}
	if c.URL() != "http://head-node/servet" {
		t.Errorf("base = %q, want the path prefix kept", c.URL())
	}
}

// TestClusterRoundTrip is the acceptance scenario of the registry
// subsystem: node A measures and publishes; node B, a machine with
// the same hardware fingerprint, gets a fully cached run — zero
// probes executed, provenance says cached — whose measured content is
// byte-identical to node A's report.
func TestClusterRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, ts := startRegistry(t)

	// Node A: cold run against the registry; Session.Run publishes the
	// merged report via RemoteCache.Store.
	nodeA, err := servet.NewSession(servet.Dempsey(),
		servet.WithOptions(quickOpt), servet.WithCache(remoteCache(t, ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	repA, err := nodeA.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for probe, st := range statuses(repA) {
		if st != servet.ProvenanceRan {
			t.Errorf("node A: %s status %q, want ran", probe, st)
		}
	}

	// The registry now serves node A's report over plain HTTP.
	resp, err := http.Get(ts.URL + regproto.ReportPath(nodeA.Fingerprint()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registry GET status = %d", resp.StatusCode)
	}
	var served servet.Report
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if measuredJSON(t, &served) != measuredJSON(t, repA) {
		t.Error("served report diverges from node A's")
	}

	// Node B: same model, hence same fingerprint — a fully cached run.
	nodeB, err := servet.NewSession(servet.Dempsey(),
		servet.WithOptions(quickOpt), servet.WithCache(remoteCache(t, ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	if nodeB.Fingerprint() != nodeA.Fingerprint() {
		t.Fatal("fingerprints differ between identical models")
	}
	repB, err := nodeB.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for probe, st := range statuses(repB) {
		if st != servet.ProvenanceCached {
			t.Errorf("node B: %s status %q, want cached (zero probes executed)", probe, st)
		}
	}
	if measuredJSON(t, repB) != measuredJSON(t, repA) {
		t.Errorf("node B's report diverges from node A's:\n%s\nvs\n%s",
			measuredJSON(t, repB), measuredJSON(t, repA))
	}
	// Cached sections keep node A's measurement timestamps.
	if !repB.ProvenanceFor("cache-size").Timestamp.Equal(repA.ProvenanceFor("cache-size").Timestamp) {
		t.Error("node B lost node A's measurement timestamp")
	}
}

// TestRegistryRunCoalescing is the other acceptance half, driven over
// plain HTTP: N concurrent POST-runs for a fingerprint the registry
// has never seen execute the probe engine exactly once.
func TestRegistryRunCoalescing(t *testing.T) {
	reg, ts := startRegistry(t)
	const n = 6
	body := `{"machine":"athlon3200","quick":true,"probes":["cache-size"]}`

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+regproto.RunPath, "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// One requested probe, no dependencies: however the requests
	// interleaved, the engine measured exactly one probe.
	statsResp, err := http.Get(ts.URL + regproto.StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st regproto.Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ProbesExecuted != 1 {
		t.Errorf("engine measured %d probes under %d concurrent requests, want 1", st.ProbesExecuted, n)
	}
	// Stats carries a map now, so compare the canonical JSON.
	gotJSON, _ := json.Marshal(reg.Stats())
	wantJSON, _ := json.Marshal(st)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("stats endpoint %s diverges from Registry.Stats %s", wantJSON, gotJSON)
	}
}

// TestRemoteCacheBehindPathPrefix: a registry mounted under a path
// prefix (reverse proxy) round-trips through a prefixed base URL.
func TestRemoteCacheBehindPathPrefix(t *testing.T) {
	reg := server.New(server.NewMemStore())
	mux := http.NewServeMux()
	mux.Handle("/servet/", http.StripPrefix("/servet", reg))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cache := remoteCache(t, ts.URL+"/servet")
	if err := cache.Store("sha256:abc", sampleReport("sha256:abc", 16<<10)); err != nil {
		t.Fatal(err)
	}
	back, ok := cache.Lookup("sha256:abc")
	if !ok || back.Caches[0].SizeBytes != 16<<10 {
		t.Fatalf("round trip through prefix failed: %+v ok=%v", back, ok)
	}
}

// TestRemoteCacheOfflineFallback: with the registry unreachable the
// session still completes — Lookup misses and Store swallows the
// network error — so offline nodes keep working.
func TestRemoteCacheOfflineFallback(t *testing.T) {
	ctx := context.Background()
	// A just-closed test server: the port is valid but nothing listens.
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()

	rc := remoteCache(t, url)
	s, err := servet.NewSession(servet.Dempsey(),
		servet.WithOptions(quickOpt), servet.WithCache(rc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(ctx, "cache-size")
	if err != nil {
		t.Fatalf("offline run failed: %v", err)
	}
	if st := statuses(rep); st["cache-size"] != servet.ProvenanceRan {
		t.Errorf("offline run provenance = %v", st)
	}
	// The swallowed publish is visible to callers that want to report
	// the outcome truthfully (cmd/servet prints a warning off this).
	if rc.SkippedStores() == 0 {
		t.Error("skipped publish not counted")
	}
}

// TestRemoteCacheFingerprintMismatchParity: a registry conflict
// surfaces as the same *FingerprintMismatchError a FileCache returns.
func TestRemoteCacheFingerprintMismatchParity(t *testing.T) {
	_, ts := startRegistry(t)
	cache := remoteCache(t, ts.URL)
	r := sampleReport("sha256:machine-a", 16<<10)
	err := cache.Store("sha256:machine-b", r)
	var fe *servet.FingerprintMismatchError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FingerprintMismatchError", err)
	}
	if fe.Have != "sha256:machine-a" || fe.Want != "sha256:machine-b" {
		t.Errorf("error fields = %+v", fe)
	}

	// A matching store round-trips.
	if err := cache.Store("sha256:machine-a", r); err != nil {
		t.Fatalf("matching store refused: %v", err)
	}
	back, ok := cache.Lookup("sha256:machine-a")
	if !ok || back.Caches[0].SizeBytes != 16<<10 {
		t.Fatalf("lookup after store: %+v ok=%v", back, ok)
	}
	// The returned report is the caller's own copy.
	back.Caches[0].SizeBytes = 1
	again, ok := cache.Lookup("sha256:machine-a")
	if !ok || again.Caches[0].SizeBytes != 16<<10 {
		t.Error("Lookup handed out shared state")
	}
}

// TestRemoteCacheSchemaMismatchSurfaces: unlike network failures, a
// schema conflict is a real error (silently dropping the report would
// hide that the cluster runs incompatible builds).
func TestRemoteCacheSchemaMismatchSurfaces(t *testing.T) {
	_, ts := startRegistry(t)
	cache := remoteCache(t, ts.URL)
	r := sampleReport("sha256:machine-a", 16<<10)
	r.Schema = 1
	if err := cache.Store("sha256:machine-a", r); err == nil {
		t.Error("schema-mismatched store succeeded silently")
	}
}
