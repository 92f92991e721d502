package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"servet/internal/regproto"
	"servet/internal/report"
	"servet/internal/server"
)

// TestCounterBodiesExact pins the registry's run counters as they
// reach the wire: after a fixed request sequence, the run-counter
// section of /metrics and the whole /v1/stats body must match these
// bytes exactly. The HTTP latency series above the run counters carry
// wall-clock sums, so the /metrics comparison starts at the first
// run-counter header.
func TestCounterBodiesExact(t *testing.T) {
	_, ts := newTestRegistry(t)

	const runBody = `{"machine":"dempsey","quick":true,"probes":["cache-size"]}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+regproto.RunPath, "application/json", strings.NewReader(runBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d status = %d, want 200", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + regproto.ReportPath("sha256:missing"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing fingerprint status = %d, want 404", resp.StatusCode)
	}
	const gridTune = `{
		"run": {"machine": "dempsey", "quick": true, "probes": ["cache-size"]},
		"space": {"axes": [{"name": "tile", "kind": "pow2", "min": 4, "max": 32}]},
		"objective": {"name": "tiled-kernel", "params": {"n": 32}},
		"strategy": "grid"
	}`
	if res, resp := postTune(t, ts.URL, gridTune); res == nil {
		t.Fatalf("tune status %d: %+v", resp.StatusCode, decodeError(t, resp))
	}

	metrics := fetchMetrics(t, ts.URL)
	i := strings.Index(metrics, "# HELP servet_run_sessions_total")
	if i < 0 {
		t.Fatalf("/metrics lacks the run-counter section:\n%s", metrics)
	}
	const wantMetrics = `# HELP servet_run_sessions_total Engine sessions executed by POST runs.
# TYPE servet_run_sessions_total counter
servet_run_sessions_total 3
# HELP servet_runs_coalesced_total Run requests that piggybacked on an identical in-flight run.
# TYPE servet_runs_coalesced_total counter
servet_runs_coalesced_total 0
# HELP servet_probes_executed_total Probes the engine actually measured.
# TYPE servet_probes_executed_total counter
servet_probes_executed_total 1
# HELP servet_tune_requests_total Tune requests served.
# TYPE servet_tune_requests_total counter
servet_tune_requests_total 1
# HELP servet_tunes_coalesced_total Tune requests that piggybacked on an identical in-flight search.
# TYPE servet_tunes_coalesced_total counter
servet_tunes_coalesced_total 0
# HELP servet_tune_evaluations_total Objective evaluations the tune engine executed.
# TYPE servet_tune_evaluations_total counter
servet_tune_evaluations_total 4
# HELP servet_store_requests_total Per-fingerprint store reads, by outcome.
# TYPE servet_store_requests_total counter
servet_store_requests_total{result="hit"} 2
servet_store_requests_total{result="miss"} 2
# HELP servet_handler_panics_total Requests whose handler panicked.
# TYPE servet_handler_panics_total counter
servet_handler_panics_total 0
`
	if got := metrics[i:]; got != wantMetrics {
		t.Errorf("/metrics run counters:\n%s\nwant:\n%s", got, wantMetrics)
	}

	resp, err = http.Get(ts.URL + regproto.StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	const wantStats = `{
  "run_sessions": 3,
  "runs_coalesced": 0,
  "probes_executed": 1,
  "tune_requests": 1,
  "tunes_coalesced": 0,
  "tune_evaluations": 4,
  "store_hits": 2,
  "store_misses": 2,
  "handler_panics": 0,
  "http_requests": {
    "reports.get": 1,
    "run": 2,
    "tune": 1
  }
}
`
	if string(stats) != wantStats {
		t.Errorf("/v1/stats body:\n%s\nwant:\n%s", stats, wantStats)
	}
}

// panickingStore is a MemStore whose Get panics while panics is
// positive, counting it down.
type panickingStore struct {
	*server.MemStore
	panics atomic.Int32
}

func (s *panickingStore) Get(fp string) (*report.Report, error) {
	if s.panics.Add(-1) >= 0 {
		panic("store fault")
	}
	return s.MemStore.Get(fp)
}

// TestHandlerPanicAnswers500: a handler that panics before answering is
// answered 500 internal with a JSON error, the panic is counted in
// /v1/stats and /metrics, and the registry goes on serving: the same
// request, once the store has recovered, is answered as usual.
func TestHandlerPanicAnswers500(t *testing.T) {
	store := &panickingStore{MemStore: server.NewMemStore()}
	store.panics.Store(1)
	ts := httptest.NewServer(server.New(store))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + regproto.ReportPath("sha256:any"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET report with a panicking store: status %d, want 500", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != regproto.CodeInternal {
		t.Errorf("error code %q, want %q", e.Code, regproto.CodeInternal)
	}

	resp, err = http.Get(ts.URL + regproto.ReportPath("sha256:any"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET report after the panic: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + regproto.StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st regproto.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.HandlerPanics != 1 || st.HTTPRequests["reports.get"] != 2 {
		t.Errorf("stats: %d handler panics over %d report GETs, want 1 over 2", st.HandlerPanics, st.HTTPRequests["reports.get"])
	}
	for _, want := range []string{"servet_handler_panics_total 1\n", `servet_http_requests_total{endpoint="reports.get",code="5xx"} 1`} {
		if metrics := fetchMetrics(t, ts.URL); !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
