package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"servet"
	"servet/internal/regproto"
	"servet/internal/report"
	"servet/internal/server"
)

// newTestRegistry starts a registry over a fresh in-memory store.
func newTestRegistry(t *testing.T) (*server.Registry, *httptest.Server) {
	t.Helper()
	reg := server.New(server.NewMemStore())
	ts := httptest.NewServer(reg)
	t.Cleanup(ts.Close)
	return reg, ts
}

func decodeError(t *testing.T, resp *http.Response) regproto.Error {
	t.Helper()
	defer resp.Body.Close()
	var e regproto.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body did not decode: %v", err)
	}
	return e
}

func putJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return putBytes(t, url, data)
}

func putBytes(t *testing.T, url string, data []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGetUnknownFingerprint: a fingerprint the store has no entry for
// is 404 with the not-found code.
func TestGetUnknownFingerprint(t *testing.T) {
	_, ts := newTestRegistry(t)
	resp, err := http.Get(ts.URL + regproto.ReportPath("sha256:nope"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != regproto.CodeNotFound {
		t.Errorf("code = %q, want %q", e.Code, regproto.CodeNotFound)
	}
}

// TestPutMalformedBody: a body that is not a report is 400.
func TestPutMalformedBody(t *testing.T) {
	_, ts := newTestRegistry(t)
	resp := putBytes(t, ts.URL+regproto.ReportPath("sha256:abc"), []byte("{{{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != regproto.CodeBadRequest {
		t.Errorf("code = %q, want %q", e.Code, regproto.CodeBadRequest)
	}
}

// TestPutSchemaMismatch: a report with a schema version the registry
// does not store is the typed schema error, surfaced as 409.
func TestPutSchemaMismatch(t *testing.T) {
	_, ts := newTestRegistry(t)
	r := storeSample("sha256:abc", 16<<10)
	r.Schema = 1
	resp := putJSON(t, ts.URL+regproto.ReportPath("sha256:abc"), r)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	e := decodeError(t, resp)
	if e.Code != regproto.CodeSchemaMismatch || e.Schema != 1 {
		t.Errorf("error = %+v, want schema-mismatch carrying v1", e)
	}
}

// TestPutFingerprintMismatch: a report addressed to a fingerprint it
// does not carry is 409 with both sides of the mismatch.
func TestPutFingerprintMismatch(t *testing.T) {
	_, ts := newTestRegistry(t)
	r := storeSample("sha256:other", 16<<10)
	resp := putJSON(t, ts.URL+regproto.ReportPath("sha256:abc"), r)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	e := decodeError(t, resp)
	if e.Code != regproto.CodeFingerprintMismatch || e.Have != "sha256:other" || e.Want != "sha256:abc" {
		t.Errorf("error = %+v", e)
	}
}

// TestPutGetListProbeRoundTrip drives the storage endpoints end to
// end: PUT, GET back, list, and per-probe section.
func TestPutGetListProbeRoundTrip(t *testing.T) {
	_, ts := newTestRegistry(t)
	r := storeSample("sha256:abc", 16<<10)

	resp := putJSON(t, ts.URL+regproto.ReportPath("sha256:abc"), r)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status = %d, want 204", resp.StatusCode)
	}

	getResp, err := http.Get(ts.URL + regproto.ReportPath("sha256:abc"))
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var back report.Report
	if err := json.NewDecoder(getResp.Body).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint != "sha256:abc" || back.Caches[0].SizeBytes != 16<<10 {
		t.Errorf("GET returned %+v", back)
	}

	listResp, err := http.Get(ts.URL + regproto.ReportsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var entries []regproto.Entry
	if err := json.NewDecoder(listResp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Fingerprint != "sha256:abc" ||
		entries[0].Schema != report.CurrentSchema || len(entries[0].Probes) != 1 {
		t.Errorf("list = %+v", entries)
	}

	probeResp, err := http.Get(ts.URL + regproto.ProbePath("sha256:abc", "cache-size"))
	if err != nil {
		t.Fatal(err)
	}
	defer probeResp.Body.Close()
	var sec regproto.ProbeSection
	if err := json.NewDecoder(probeResp.Body).Decode(&sec); err != nil {
		t.Fatal(err)
	}
	if sec.Probe != "cache-size" || len(sec.Caches) != 1 || sec.Provenance.OptionsDigest != "d1" {
		t.Errorf("probe section = %+v", sec)
	}

	// A probe the report carries no provenance for is 404.
	missResp, err := http.Get(ts.URL + regproto.ProbePath("sha256:abc", "tlb"))
	if err != nil {
		t.Fatal(err)
	}
	if missResp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing probe status = %d, want 404", missResp.StatusCode)
	}
	if e := decodeError(t, missResp); e.Code != regproto.CodeNotFound {
		t.Errorf("code = %q", e.Code)
	}
}

// TestRunBadRequests: unknown machine models and unknown probes are
// the client's fault, 400.
func TestRunBadRequests(t *testing.T) {
	_, ts := newTestRegistry(t)
	for name, body := range map[string]string{
		"malformed":       "{{{",
		"unknown machine": `{"machine":"no-such-box"}`,
		"unknown probe":   `{"machine":"dempsey","quick":true,"probes":["no-such-probe"]}`,
	} {
		resp, err := http.Post(ts.URL+regproto.RunPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != regproto.CodeBadRequest {
			t.Errorf("%s: code = %q", name, e.Code)
		}
	}
}

// FuzzRunRequest: run-request decoding never panics, and a request it
// accepts names a known model, at least one node and known probes, and
// is normalized: encoding it and decoding that again gives the same
// coalescing key. It only decodes; no engine runs.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"machine":"dempsey","quick":true,"probes":["cache-size"]}`,
		`{"machine":"finisterrae","nodes":4,"seed":-3,"noise":0.02,"probes":["tlb","communication-costs"]}`,
		`{"machine":"dempsey","quick":true,"probes":["no-such-probe"]}`,
		`{"machine":"no-such-box"}`,
		`{"machine":"dunnington","nodes":-1,"probes":[]}`,
		`{{{`,
		`{"machine":"dempsey"} trailing`,
	} {
		f.Add(body)
	}
	known := servet.ProbeNames()
	f.Fuzz(func(t *testing.T, body string) {
		rr, m, err := server.DecodeRun(strings.NewReader(body))
		if err != nil {
			return
		}
		if m == nil {
			t.Fatalf("%q: accepted without a machine", body)
		}
		if _, ok := servet.Model(rr.Machine, rr.Nodes); !ok {
			t.Fatalf("%q: accepted unknown model %q", body, rr.Machine)
		}
		if rr.Nodes < 1 {
			t.Fatalf("%q: accepted with %d nodes", body, rr.Nodes)
		}
		for _, p := range rr.Probes {
			if !slices.Contains(known, p) {
				t.Fatalf("%q: accepted unknown probe %q", body, p)
			}
		}
		key, err := json.Marshal(rr)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := server.DecodeRun(bytes.NewReader(key))
		if err != nil {
			t.Fatalf("%q: normalized request %s rejected: %v", body, key, err)
		}
		if key2, _ := json.Marshal(again); !bytes.Equal(key2, key) {
			t.Fatalf("%q: normalization not idempotent: %s then %s", body, key, key2)
		}
	})
}

// TestRunStoresAndRestores: the first run for a fingerprint executes
// the engine and stores the entry; a second identical run restores
// everything from the store (zero probes executed).
func TestRunStoresAndRestores(t *testing.T) {
	reg, ts := newTestRegistry(t)
	body := `{"machine":"dempsey","quick":true,"probes":["cache-size"]}`

	run := func() *report.Report {
		t.Helper()
		resp, err := http.Post(ts.URL+regproto.RunPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run status = %d", resp.StatusCode)
		}
		var r report.Report
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return &r
	}

	first := run()
	if got := first.ProvenanceFor("cache-size"); got == nil || got.Status != report.ProvenanceRan {
		t.Fatalf("cold run provenance = %+v", got)
	}
	if st := reg.Stats(); st.ProbesExecuted != 1 || st.RunSessions != 1 {
		t.Fatalf("cold stats = %+v", st)
	}

	second := run()
	if got := second.ProvenanceFor("cache-size"); got == nil || got.Status != report.ProvenanceCached {
		t.Fatalf("warm run provenance = %+v", got)
	}
	if st := reg.Stats(); st.ProbesExecuted != 1 {
		t.Errorf("warm run re-measured: stats = %+v", st)
	}
	if len(first.Caches) != len(second.Caches) || first.Caches[0].SizeBytes != second.Caches[0].SizeBytes {
		t.Errorf("warm run diverged: %+v vs %+v", first.Caches, second.Caches)
	}
}

// TestRunCoalescesConcurrentRequests is the load contract of the run
// endpoint: N identical concurrent requests for an unknown
// fingerprint must execute the probe engine exactly once — the
// singleflight leader measures, everyone else waits for its report.
// The -race CI job hammers this path.
func TestRunCoalescesConcurrentRequests(t *testing.T) {
	reg, ts := newTestRegistry(t)
	const n = 8
	body := `{"machine":"dempsey","quick":true,"probes":["cache-size"]}`

	var wg sync.WaitGroup
	reports := make([]*report.Report, n)
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
				return
			}
			var r report.Report
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				errs[i] = err
				return
			}
			reports[i] = &r
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// The probe closure is one probe; no matter how the n requests
	// interleaved (coalesced onto the leader, or started after it
	// finished and restored from the store), the engine measured it
	// exactly once.
	if st := reg.Stats(); st.ProbesExecuted != 1 {
		t.Errorf("engine measured %d probes under %d concurrent requests, want 1 (stats %+v)", st.ProbesExecuted, n, st)
	}

	// Every caller got the same measurement.
	want := reports[0].Caches[0].SizeBytes
	for i, r := range reports {
		if len(r.Caches) == 0 || r.Caches[0].SizeBytes != want {
			t.Errorf("request %d diverged: %+v", i, r.Caches)
		}
	}
}

// TestConcurrentDistinctRunsKeepBothSections: two concurrent runs on
// the same fingerprint with different probe subsets (different
// coalescing keys, so singleflight does not apply) must both land in
// the stored entry — per-fingerprint serialization turns the
// read-modify-write race into run-then-carry-leftovers.
func TestConcurrentDistinctRunsKeepBothSections(t *testing.T) {
	_, ts := newTestRegistry(t)
	bodies := []string{
		`{"machine":"dempsey","quick":true,"probes":["cache-size"]}`,
		`{"machine":"dempsey","quick":true,"probes":["tlb"]}`,
	}
	var wg sync.WaitGroup
	errs := make([]error, len(bodies))
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
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
		}(i, body)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// Whichever run stored last carried the other's section along.
	listResp, err := http.Get(ts.URL + regproto.ReportsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var entries []regproto.Entry
	if err := json.NewDecoder(listResp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %+v", entries)
	}
	fp := entries[0].Fingerprint
	getResp, err := http.Get(ts.URL + regproto.ReportPath(fp))
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var r report.Report
	if err := json.NewDecoder(getResp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []string{"cache-size", "tlb"} {
		if r.ProvenanceFor(probe) == nil {
			t.Errorf("stored entry lost the %s section: provenance %+v", probe, r.Provenance)
		}
	}
}

// TestRunHonorsBaseContext: a cancelled base context aborts on-demand
// runs (the shutdown path of cmd/servet-server).
func TestRunHonorsBaseContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := server.New(server.NewMemStore(), server.WithBaseContext(ctx))
	ts := httptest.NewServer(reg)
	defer ts.Close()
	resp, err := http.Post(ts.URL+regproto.RunPath, "application/json",
		strings.NewReader(`{"machine":"dempsey","quick":true,"probes":["cache-size"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500 on cancelled engine", resp.StatusCode)
	}
}

// TestHealthz: liveness endpoint for the CI smoke job.
func TestHealthz(t *testing.T) {
	_, ts := newTestRegistry(t)
	resp, err := http.Get(ts.URL + regproto.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestStatsEndpoint: counters are served as JSON.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestRegistry(t)
	resp, err := http.Get(ts.URL + regproto.StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st regproto.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RunSessions != 0 || st.ProbesExecuted != 0 {
		t.Errorf("fresh stats = %+v", st)
	}
}
