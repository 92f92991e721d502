package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servet"
	"servet/internal/regproto"
	"servet/internal/report"
	"servet/internal/server"
	"servet/internal/tune"
)

// tuneBody is the canonical request of these tests: tune a tiled
// transpose's tile edge on a quick-probed Dempsey.
const tuneBody = `{
	"run": {"machine": "dempsey", "quick": true, "probes": ["cache-size"]},
	"space": {"axes": [{"name": "tile", "kind": "pow2", "min": 4, "max": 32}]},
	"objective": {"name": "tiled-kernel", "params": {"n": 32}},
	"strategy": "grid",
	"budget": 16
}`

// overflowTuneBody asks for a tiled kernel whose n×n arrays overflow
// int64 bytes; oversizedTuneBody for two 2 GiB arrays on a Dempsey
// with 2 GiB of page frames. Both once panicked the simulated
// allocator.
const (
	overflowTuneBody = `{
	"run": {"machine": "dempsey", "quick": true, "probes": ["cache-size"]},
	"space": {"axes": [{"name": "tile", "kind": "pow2", "min": 4, "max": 32}]},
	"objective": {"name": "tiled-kernel", "params": {"n": 3037000500}},
	"strategy": "grid"
}`
	oversizedTuneBody = `{
	"run": {"machine": "dempsey", "quick": true, "probes": ["cache-size"]},
	"space": {"axes": [{"name": "tile", "kind": "pow2", "min": 4, "max": 32}]},
	"objective": {"name": "tiled-kernel", "params": {"n": 16384}},
	"strategy": "grid"
}`
)

func postTune(t *testing.T, url, body string) (*tune.Result, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+regproto.TunePath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		// The caller inspects (and closes) the error body.
		return nil, resp
	}
	defer resp.Body.Close()
	var res tune.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return &res, resp
}

// TestTuneEndpointMatchesLocalTune is the remote/local parity
// contract: POST /v1/tune must return exactly the result a local
// servet.Tune produces on the same report, seed and budget — best
// config, score, and full trace.
func TestTuneEndpointMatchesLocalTune(t *testing.T) {
	_, ts := newTestRegistry(t)
	remote, resp := postTune(t, ts.URL, tuneBody)
	if remote == nil {
		t.Fatalf("tune status %d: %+v", resp.StatusCode, decodeError(t, resp))
	}
	if resp.Header.Get("Servet-Tune") != "executed" {
		t.Errorf("Servet-Tune = %q, want executed", resp.Header.Get("Servet-Tune"))
	}

	// Fetch the report the server tuned against and reproduce the
	// search locally through the public API.
	rep := getReport(t, ts.URL, remote.Fingerprint)
	obj, err := servet.NewObjective(servet.ObjectiveSpec{
		Name: servet.ObjectiveTiledKernel, Params: json.RawMessage(`{"n": 32}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := servet.Tune(context.Background(), rep,
		servet.TuneSpace{Axes: []servet.TuneAxis{servet.Pow2Axis("tile", 4, 32)}},
		obj, servet.TuneStrategy("grid"), servet.TuneBudget(16), servet.TuneParallelism(3))
	if err != nil {
		t.Fatal(err)
	}

	remote.Provenance, local.Provenance = tune.Provenance{}, tune.Provenance{}
	rb, _ := json.Marshal(remote)
	lb, _ := json.Marshal(local)
	if string(rb) != string(lb) {
		t.Errorf("remote and local tunes diverged\nremote: %s\n local: %s", rb, lb)
	}
	if remote.Schema != tune.ResultSchema || remote.Machine != "dempsey" {
		t.Errorf("result header: %+v", remote)
	}
}

func getReport(t *testing.T, url, fp string) *report.Report {
	t.Helper()
	resp, err := http.Get(url + regproto.ReportPath(fp))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report: status %d", resp.StatusCode)
	}
	var r report.Report
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	return &r
}

// gateStore delays the first Get until the gate closes, holding the
// tune leader inside its singleflight long enough for every
// concurrent request to park on it.
type gateStore struct {
	server.Store
	gate <-chan struct{}
	once sync.Once
}

func (s *gateStore) Get(fp string) (*report.Report, error) {
	s.once.Do(func() { <-s.gate })
	return s.Store.Get(fp)
}

// TestTuneCoalescesConcurrentRequests is the exactly-once contract of
// the tune endpoint: N identical concurrent requests run one search
// (the leader's), every waiter shares its result byte for byte, and
// the underlying probe run executes once.
func TestTuneCoalescesConcurrentRequests(t *testing.T) {
	const n = 6
	gate := make(chan struct{})
	reg := server.New(&gateStore{Store: server.NewMemStore(), gate: gate})
	ts := httptest.NewServer(reg)
	defer ts.Close()

	var entered atomic.Int64
	go func() {
		// Release the leader once all n requests are inside the
		// handler (plus a beat for the stragglers to park on the
		// flight).
		for entered.Load() < n {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()

	var wg sync.WaitGroup
	results := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Add(1)
			resp, err := http.Post(ts.URL+regproto.TunePath, "application/json", strings.NewReader(tuneBody))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var res tune.Result
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				errs[i] = err
				return
			}
			res.Provenance = tune.Provenance{}
			b, _ := json.Marshal(&res)
			results[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	st := reg.Stats()
	if st.TuneRequests != n {
		t.Errorf("TuneRequests = %d, want %d", st.TuneRequests, n)
	}
	if st.TunesCoalesced != n-1 {
		t.Errorf("TunesCoalesced = %d, want %d (exactly one search)", st.TunesCoalesced, n-1)
	}
	// One search of a 4-point pow2 axis under a grid strategy: exactly
	// 4 evaluations, counted once.
	if st.TuneEvaluations != 4 {
		t.Errorf("TuneEvaluations = %d, want 4", st.TuneEvaluations)
	}
	if st.ProbesExecuted != 1 {
		t.Errorf("ProbesExecuted = %d, want 1 (tunes share the underlying run)", st.ProbesExecuted)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Errorf("request %d diverged:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
}

// TestTuneBadRequests: every client-side mistake is a 400 with the
// bad-request code, before any engine runs.
func TestTuneBadRequests(t *testing.T) {
	reg, ts := newTestRegistry(t)
	cases := []struct {
		name string
		body string
	}{
		{"malformed body", `{`},
		{"unknown machine", `{"run":{"machine":"warp-core"},"space":{"axes":[{"name":"x","kind":"pow2","min":1,"max":2}]},"objective":{"name":"tiled-kernel"}}`},
		{"empty space", `{"run":{"machine":"dempsey"},"space":{},"objective":{"name":"tiled-kernel"}}`},
		{"bad axis", `{"run":{"machine":"dempsey"},"space":{"axes":[{"name":"x","kind":"pow2","min":3,"max":8}]},"objective":{"name":"tiled-kernel"}}`},
		{"full int64 range", `{"run":{"machine":"dempsey"},"space":{"axes":[{"name":"x","kind":"int-range","min":-9223372036854775808,"max":9223372036854775807,"step":1}]},"objective":{"name":"tiled-kernel"}}`},
		{"2^63-point range", `{"run":{"machine":"dempsey"},"space":{"axes":[{"name":"x","kind":"int-range","min":0,"max":9223372036854775807,"step":1}]},"objective":{"name":"tiled-kernel"},"strategy":"random"}`},
		{"unknown strategy", `{"run":{"machine":"dempsey"},"space":{"axes":[{"name":"x","kind":"pow2","min":1,"max":2}]},"objective":{"name":"tiled-kernel"},"strategy":"psychic"}`},
		{"unknown objective", `{"run":{"machine":"dempsey"},"space":{"axes":[{"name":"x","kind":"pow2","min":1,"max":2}]},"objective":{"name":"mystery"}}`},
		{"bad objective params", `{"run":{"machine":"dempsey"},"space":{"axes":[{"name":"x","kind":"pow2","min":1,"max":2}]},"objective":{"name":"bcast-model","params":{"ranks":1,"bytes":8}}}`},
	}
	for _, c := range cases {
		res, resp := postTune(t, ts.URL, c.body)
		if res != nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != regproto.CodeBadRequest {
			t.Errorf("%s: code %q, want %q", c.name, e.Code, regproto.CodeBadRequest)
		}
	}
	// Bad requests ran nothing.
	st := reg.Stats()
	if st.RunSessions != 0 || st.TuneEvaluations != 0 {
		t.Errorf("bad requests reached an engine: %+v", st)
	}
	if st.TuneRequests != int64(len(cases)) {
		t.Errorf("TuneRequests = %d, want %d", st.TuneRequests, len(cases))
	}
}

// TestTuneStatsInStatsEndpoint: the tune counters ride the same
// /v1/stats document as the run counters.
func TestTuneStatsInStatsEndpoint(t *testing.T) {
	_, ts := newTestRegistry(t)
	if res, resp := postTune(t, ts.URL, tuneBody); res == nil {
		t.Fatalf("tune status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + regproto.StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st regproto.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TuneRequests != 1 || st.TuneEvaluations != 4 || st.TunesCoalesced != 0 {
		t.Errorf("stats after one tune = %+v", st)
	}
}

// TestTuneUnrunnableKernelKeepsServing: at parallelism 2 tile
// evaluations run in sweep workers, where a panic would end the whole
// process. A kernel shape that overflows int64 and one that does not
// fit the machine's memory are both bad requests, and the registry
// goes on serving.
func TestTuneUnrunnableKernelKeepsServing(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewMemStore(), server.WithParallelism(2)))
	t.Cleanup(ts.Close)
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"overflowing shape", overflowTuneBody, http.StatusBadRequest},
		{"shape larger than memory", oversizedTuneBody, http.StatusBadRequest},
	} {
		res, resp := postTune(t, ts.URL, c.body)
		if res != nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		if e := decodeError(t, resp); e.Message == "" {
			t.Errorf("%s: error body without a message: %+v", c.name, e)
		}
	}
	if res, resp := postTune(t, ts.URL, tuneBody); res == nil {
		t.Fatalf("next tune status %d: %+v", resp.StatusCode, decodeError(t, resp))
	}
}

// FuzzTuneRequest: request validation never panics, and a request it
// accepts has a machine, an objective, a non-empty space, and axes
// whose last points materialize inside their bounds.
func FuzzTuneRequest(f *testing.F) {
	for _, body := range []string{tuneBody, overflowTuneBody, oversizedTuneBody, `{`, `{"run":{"machine":"dempsey"},"space":{"axes":[{"name":"x","kind":"int-range","min":-9223372036854775808,"max":9223372036854775806,"step":2},{"name":"a","kind":"choice","choices":["flat","binomial-tree"]}]},"objective":{"name":"bcast-model","params":{"ranks":2,"bytes":8}}}`} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		tr, m, obj, err := server.DecodeTune(strings.NewReader(body))
		if err != nil {
			return
		}
		if m == nil || obj == nil {
			t.Fatalf("%q: accepted without machine (%v) or objective (%v)", body, m, obj)
		}
		if n := tr.Space.Size(); n < 1 {
			t.Fatalf("%q: Size() = %d, want >= 1", body, n)
		}
		for _, ax := range tr.Space.Axes {
			one := tune.Space{Axes: []tune.Axis{ax}}
			last := one.Materialize(tune.Point{one.Size() - 1})[0]
			if ax.Kind == tune.KindChoice {
				if last.Str != ax.Choices[len(ax.Choices)-1] {
					t.Fatalf("%q: axis %s: last choice %q, want %q", body, ax.Name, last.Str, ax.Choices[len(ax.Choices)-1])
				}
			} else if last.Int < ax.Min || last.Int > ax.Max {
				t.Fatalf("%q: axis %s: last point %d outside [%d, %d]", body, ax.Name, last.Int, ax.Min, ax.Max)
			}
		}
	})
}
