// Package server implements the probe-registry server: an
// http.Handler that stores Servet reports keyed by machine
// fingerprint behind a pluggable Store, serves them (whole, listed,
// or per probe section) to autotuners across a cluster, and runs the
// probe engine on demand for fingerprints it has no fresh results
// for. Identical concurrent run requests coalesce into a single
// engine execution.
//
// The registry is the cluster-side half of the install-time parameter
// file the paper describes: one node measures, every node with the
// same hardware fingerprint reuses the results (clients connect
// through servet.RemoteCache or plain HTTP; the wire protocol lives
// in internal/regproto).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"

	"servet"
	"servet/internal/regproto"
	"servet/internal/report"
	"servet/internal/tune"
)

// maxReportBytes bounds PUT and POST bodies; the largest real report
// (FinisTerrae, full bandwidth sweeps) is well under a megabyte.
const maxReportBytes = 32 << 20

// Registry is the probe-registry server: an http.Handler over a Store
// of fingerprint-keyed reports with an on-demand probe engine.
type Registry struct {
	store       Store
	parallelism int
	baseCtx     context.Context
	mux         *http.ServeMux
	flight      flightGroup[*report.Report]
	tuneFlight  flightGroup[*tune.Result]

	// fpLocks serializes every store-entry read-modify-write per
	// fingerprint (on-demand runs and PUTs): a session run is
	// Lookup → measure → Store, and two concurrent writers that both
	// read the old entry would each store a report missing what the
	// other just measured. The singleflight group only covers
	// byte-identical run requests; this covers the rest.
	fpMu    sync.Mutex
	fpLocks map[string]*fpLock

	// counts holds the run counters, indexed by the counters table
	// (metrics.go) that both /v1/stats and /metrics render.
	counts [numCounters]atomic.Int64

	// metrics is the per-endpoint HTTP metrics layer (see metrics.go);
	// accessLog, when set, records one structured line per request.
	metrics   *httpMetrics
	accessLog *slog.Logger
}

// fpLock is one fingerprint's write lock, counted by the holders and
// waiters that reference it.
type fpLock struct {
	mu   sync.Mutex
	refs int
}

// lockFingerprint takes the lock serializing writes to one
// fingerprint's entry and returns its release. The last release
// deletes the entry, so the map holds only fingerprints with a write
// in flight or waiting, however many distinct fingerprints are PUT.
func (reg *Registry) lockFingerprint(fp string) (unlock func()) {
	reg.fpMu.Lock()
	l := reg.fpLocks[fp]
	if l == nil {
		l = &fpLock{}
		reg.fpLocks[fp] = l
	}
	l.refs++
	reg.fpMu.Unlock()

	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		reg.fpMu.Lock()
		defer reg.fpMu.Unlock()
		if l.refs--; l.refs == 0 {
			delete(reg.fpLocks, fp)
		}
	}
}

// Option configures a Registry.
type Option func(*Registry)

// WithParallelism sets the worker count on-demand runs hand to their
// session (the cache-size and shared-cache sweeps; reports are
// identical at any value).
func WithParallelism(n int) Option {
	return func(r *Registry) { r.parallelism = n }
}

// WithBaseContext sets the context on-demand probe runs execute
// under. Runs deliberately do not inherit the triggering request's
// context — coalesced waiters would be poisoned by the leader
// hanging up — so cancellation comes from this context instead:
// cancel it (e.g. on SIGINT) to abort in-flight engine runs during
// shutdown.
func WithBaseContext(ctx context.Context) Option {
	return func(r *Registry) { r.baseCtx = ctx }
}

// New builds a registry over the store.
func New(store Store, opts ...Option) *Registry {
	reg := &Registry{store: store, parallelism: 1, baseCtx: context.Background(), metrics: newHTTPMetrics(),
		fpLocks: make(map[string]*fpLock)}
	for _, o := range opts {
		o(reg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+regproto.ReportsPath, reg.instrument(epList, reg.handleList))
	mux.HandleFunc("GET "+regproto.ReportsPath+"/{fingerprint}", reg.instrument(epGet, reg.handleGetReport))
	mux.HandleFunc("PUT "+regproto.ReportsPath+"/{fingerprint}", reg.instrument(epPut, reg.handlePutReport))
	mux.HandleFunc("GET "+regproto.ReportsPath+"/{fingerprint}/probes/{probe}", reg.instrument(epProbe, reg.handleGetProbe))
	mux.HandleFunc("POST "+regproto.RunPath, reg.instrument(epRun, reg.handleRun))
	mux.HandleFunc("POST "+regproto.TunePath, reg.instrument(epTune, reg.handleTune))
	mux.HandleFunc("GET "+regproto.StatsPath, reg.instrument(epStats, reg.handleStats))
	mux.HandleFunc("GET "+regproto.HealthPath, reg.instrument(epHealth, func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	}))
	mux.HandleFunc("GET "+regproto.MetricsPath, reg.instrument(epMetrics, reg.handleMetrics))
	reg.mux = mux
	return reg
}

// ServeHTTP implements http.Handler.
func (reg *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	reg.mux.ServeHTTP(w, req)
}

// Stats returns the registry's run counters, store hit/miss counts,
// and per-endpoint request totals. The observability endpoints
// (stats, health, metrics) are excluded from the request map so that
// reading the stats never changes the next stats body.
func (reg *Registry) Stats() regproto.Stats {
	var st regproto.Stats
	for c, def := range counters {
		*def.stat(&st) = reg.counts[c].Load()
	}
	for _, ep := range endpoints {
		if statsExcluded[ep] {
			continue
		}
		if n := reg.metrics.byEndpoint[ep].total(); n > 0 {
			if st.HTTPRequests == nil {
				st.HTTPRequests = make(map[string]int64)
			}
			st.HTTPRequests[ep] = n
		}
	}
	return st
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, e regproto.Error) {
	writeJSON(w, status, e)
}

// handleList serves GET /v1/reports: one Entry per stored report.
func (reg *Registry) handleList(w http.ResponseWriter, req *http.Request) {
	reports, err := reg.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()})
		return
	}
	entries := make([]regproto.Entry, 0, len(reports))
	for _, r := range reports {
		e := regproto.Entry{Fingerprint: r.Fingerprint, Machine: r.Machine, Schema: r.Schema}
		for _, p := range r.Provenance {
			e.Probes = append(e.Probes, p.Probe)
		}
		entries = append(entries, e)
	}
	writeJSON(w, http.StatusOK, entries)
}

// storeGet is the counted read path of the per-fingerprint store:
// every report GET, probe-section GET and run cache lookup goes
// through it, so the hit/miss counters in Stats and /metrics cover
// all of them. Only a definite absence counts as a miss; a failing
// store counts as neither.
func (reg *Registry) storeGet(fp string) (*report.Report, error) {
	r, err := reg.store.Get(fp)
	switch {
	case err == nil:
		reg.counts[storeHits].Add(1)
	case errors.Is(err, ErrNotFound):
		reg.counts[storeMisses].Add(1)
	}
	return r, err
}

// handleGetReport serves GET /v1/reports/{fingerprint}: the full
// stored report, or 404.
func (reg *Registry) handleGetReport(w http.ResponseWriter, req *http.Request) {
	fp := req.PathValue("fingerprint")
	r, err := reg.storeGet(fp)
	if err != nil {
		status, e := storeErr(err, fp)
		writeError(w, status, e)
		return
	}
	writeJSON(w, http.StatusOK, r)
}

// handlePutReport serves PUT /v1/reports/{fingerprint}: store a
// report a node measured itself. Malformed bodies are 400; a report
// whose schema the registry does not store, or whose fingerprint
// disagrees with the addressed one, is 409.
func (reg *Registry) handlePutReport(w http.ResponseWriter, req *http.Request) {
	fp := req.PathValue("fingerprint")
	var r report.Report
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxReportBytes)).Decode(&r); err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{
			Code: regproto.CodeBadRequest, Message: "malformed report body: " + err.Error(),
		})
		return
	}
	if r.Schema != report.CurrentSchema {
		writeError(w, http.StatusConflict, regproto.Error{
			Code:    regproto.CodeSchemaMismatch,
			Message: (&SchemaMismatchError{Schema: r.Schema, Want: report.CurrentSchema}).Error(),
			Schema:  r.Schema,
		})
		return
	}
	if r.Fingerprint == "" {
		writeError(w, http.StatusBadRequest, regproto.Error{
			Code: regproto.CodeBadRequest, Message: "report carries no fingerprint",
		})
		return
	}
	if r.Fingerprint != fp {
		writeError(w, http.StatusConflict, regproto.Error{
			Code:    regproto.CodeFingerprintMismatch,
			Message: fmt.Sprintf("report is for machine %s, request addressed %s", r.Fingerprint, fp),
			Have:    r.Fingerprint,
			Want:    fp,
		})
		return
	}
	// Serialize with on-demand runs on the same fingerprint so a PUT
	// landing mid-run is not reverted by the run's store.
	unlock := reg.lockFingerprint(fp)
	err := reg.store.Put(&r)
	unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleGetProbe serves GET /v1/reports/{fingerprint}/probes/{probe}:
// one probe's provenance row plus the report section it produced.
// Unknown fingerprints and probes the stored report carries no
// provenance for are 404.
func (reg *Registry) handleGetProbe(w http.ResponseWriter, req *http.Request) {
	fp, probe := req.PathValue("fingerprint"), req.PathValue("probe")
	r, err := reg.storeGet(fp)
	if err != nil {
		status, e := storeErr(err, fp)
		writeError(w, status, e)
		return
	}
	prov := r.ProvenanceFor(probe)
	if prov == nil {
		writeError(w, http.StatusNotFound, regproto.Error{
			Code:    regproto.CodeNotFound,
			Message: fmt.Sprintf("report %s carries no section for probe %q", fp, probe),
		})
		return
	}
	sec := regproto.ProbeSection{Fingerprint: fp, Probe: probe, Provenance: *prov}
	for i := range r.Timings {
		if r.Timings[i].Stage == probe {
			tm := r.Timings[i]
			sec.Timing = &tm
		}
	}
	// Map the built-in probes to their report sections. A probe
	// registered after this list (the pipeline is designed for
	// extension) falls through to a provenance-plus-timing-only
	// response — the documented ProbeSection contract — and its data
	// stays reachable through the full-report endpoint.
	switch probe {
	case "cache-size", "shared-caches":
		sec.Caches = r.Caches
	case "memory-overhead":
		sec.Memory = &r.Memory
	case "communication-costs":
		sec.Comm = &r.Comm
	case "tlb":
		sec.TLB = r.TLB
	}
	writeJSON(w, http.StatusOK, sec)
}

// normalizeRun rewrites a run request to its effective values before
// anything derives from it, so requests that differ only in
// spelled-out defaults ({"machine":"dempsey"} vs
// {...,"nodes":2,"seed":1}) build the same machine and the same
// coalescing key. It returns the resolved machine model.
func normalizeRun(rr *regproto.RunRequest) (*servet.Machine, error) {
	if rr.Nodes <= 0 {
		rr.Nodes = 2
	}
	if rr.Seed == 0 {
		rr.Seed = 1 // the engine's default (core.withDefaults)
	}
	m, ok := servet.Model(rr.Machine, rr.Nodes)
	if !ok {
		return nil, fmt.Errorf("unknown machine model %q", rr.Machine)
	}
	return m, nil
}

// handleRun serves POST /v1/run: produce a report for a machine
// model, measuring only probes the store has no fresh section for.
// Identical concurrent requests coalesce onto one engine run (the
// response header Servet-Run reports "coalesced" for the piggybacked
// ones); the stored entry is updated before anyone gets the report.
func (reg *Registry) handleRun(w http.ResponseWriter, req *http.Request) {
	var rr regproto.RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxReportBytes)).Decode(&rr); err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{
			Code: regproto.CodeBadRequest, Message: "malformed run request: " + err.Error(),
		})
		return
	}
	m, err := normalizeRun(&rr)
	if err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
		return
	}
	rep, shared, err := reg.resolveRun(m, rr)
	if err != nil {
		var unknown *servet.UnknownProbeError
		if errors.As(err, &unknown) {
			writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
			return
		}
		writeError(w, http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()})
		return
	}
	if shared {
		reg.counts[runsCoalesced].Add(1)
		w.Header().Set("Servet-Run", "coalesced")
	} else {
		w.Header().Set("Servet-Run", "executed")
	}
	writeJSON(w, http.StatusOK, rep)
}

// resolveRun produces the report a normalized run request asks for:
// coalesced with identical in-flight requests, stored sections
// reused, stale probes measured. Both POST /v1/run and POST /v1/tune
// resolve their reports here, so a herd of tunes on a cold
// fingerprint triggers exactly one engine run.
func (reg *Registry) resolveRun(m *servet.Machine, rr regproto.RunRequest) (rep *report.Report, shared bool, err error) {
	fp := m.Fingerprint()
	// The coalescing key is the fingerprint plus the normalized
	// request: two requests coalesce only when they would run the same
	// probes under the same options (the canonical JSON of the
	// fixed-order struct is a cheap digest of that).
	keyBytes, err := json.Marshal(rr)
	if err != nil {
		return nil, false, err
	}
	return reg.flight.do(fp+"|"+string(keyBytes), func() (*report.Report, error) {
		// Serialize against other runs and PUTs on this fingerprint:
		// the waiter's Lookup then sees the finished entry, and the
		// session's cache walk carries every section both runs
		// produced, instead of last-write-wins dropping one run's
		// measurements.
		defer reg.lockFingerprint(fp)()
		opts := []servet.Option{
			servet.WithCache(storeCache{reg}),
			servet.WithParallelism(reg.parallelism),
			servet.WithSeed(rr.Seed),
			servet.WithNoise(rr.Noise),
		}
		if rr.Quick {
			opts = append(opts, servet.WithQuick())
		}
		ses, err := servet.NewSession(m, opts...)
		if err != nil {
			return nil, err
		}
		// The run executes under the registry's base context, not the
		// request's: a leader hanging up must not poison the waiters
		// that coalesced onto its run.
		out, err := ses.Run(reg.baseCtx, rr.Probes...)
		if err != nil {
			return nil, err
		}
		reg.counts[runSessions].Add(1)
		for _, p := range out.Provenance {
			if p.Status == report.ProvenanceRan {
				reg.counts[probesExecuted].Add(1)
			}
		}
		return out, nil
	})
}

// handleTune serves POST /v1/tune: resolve the request's report (as a
// POST run would — stored sections reused, stale probes measured
// first), then search the parameter space for the configuration
// minimizing the objective. The search is deterministic, so its
// result is as cacheable as the report itself; identical concurrent
// requests coalesce onto one search (Servet-Tune: coalesced) and even
// distinct tunes over the same cold report coalesce the underlying
// engine run.
func (reg *Registry) handleTune(w http.ResponseWriter, req *http.Request) {
	reg.counts[tuneRequests].Add(1)
	tr, m, obj, err := decodeTune(http.MaxBytesReader(w, req.Body, maxReportBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
		return
	}

	keyBytes, err := json.Marshal(tr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()})
		return
	}
	res, shared, err := reg.tuneFlight.do("tune|"+m.Fingerprint()+"|"+string(keyBytes), func() (*tune.Result, error) {
		rep, _, err := reg.resolveRun(m, tr.Run)
		if err != nil {
			return nil, err
		}
		out, err := tune.Tune(reg.baseCtx, rep, tr.Space, obj, tune.Options{
			Strategy:    tr.Strategy,
			Seed:        tr.Seed,
			Budget:      tr.Budget,
			Parallelism: reg.parallelism,
		})
		if err != nil {
			return nil, err
		}
		reg.counts[tuneEvaluations].Add(int64(out.Evaluations))
		return out, nil
	})
	if shared {
		reg.counts[tunesCoalesced].Add(1)
	}
	if err != nil {
		var unknown *servet.UnknownProbeError
		if errors.As(err, &unknown) || errors.Is(err, tune.ErrUnhostable) {
			writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
			return
		}
		writeError(w, http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()})
		return
	}
	if shared {
		w.Header().Set("Servet-Tune", "coalesced")
	} else {
		w.Header().Set("Servet-Tune", "executed")
	}
	writeJSON(w, http.StatusOK, res)
}

// decodeTune decodes a POST /v1/tune body and validates everything
// cheap before any engine runs: bad bodies, machines, spaces,
// strategies and objectives are the client's fault and must not
// produce (or wait on) a probe run. Every error it returns is a bad
// request. The request comes back normalized, with its machine and
// resolved objective.
func decodeTune(body io.Reader) (regproto.TuneRequest, *servet.Machine, tune.Objective, error) {
	var tr regproto.TuneRequest
	if err := json.NewDecoder(body).Decode(&tr); err != nil {
		return tr, nil, nil, fmt.Errorf("malformed tune request: %w", err)
	}
	m, err := normalizeRun(&tr.Run)
	if err != nil {
		return tr, nil, nil, err
	}
	// Normalize the tune side too, so spelled-out defaults coalesce
	// with omitted ones ("" and "auto" are the same strategy; the
	// engine's own defaults fill seed and budget).
	if tr.Strategy == "" {
		tr.Strategy = tune.StrategyAuto
	}
	if tr.Seed == 0 {
		tr.Seed = tune.DefaultSeed
	}
	if tr.Budget <= 0 {
		tr.Budget = tune.DefaultBudget
	}
	if err := tr.Space.Validate(); err != nil {
		return tr, nil, nil, err
	}
	if _, err := tune.NewStrategy(tr.Strategy); err != nil {
		return tr, nil, nil, err
	}
	obj, err := tune.NewObjective(tr.Objective)
	if err != nil {
		return tr, nil, nil, err
	}
	return tr, m, obj, nil
}

// handleStats serves GET /v1/stats.
func (reg *Registry) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, reg.Stats())
}

// storeErr maps a Store.Get failure to its HTTP shape.
func storeErr(err error, fp string) (int, regproto.Error) {
	if errors.Is(err, ErrNotFound) {
		return http.StatusNotFound, regproto.Error{
			Code:    regproto.CodeNotFound,
			Message: fmt.Sprintf("no report for fingerprint %s", fp),
		}
	}
	return http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()}
}

// storeCache adapts the registry's Store to the session Cache
// interface, so on-demand runs restore fresh sections straight from
// the registry and store the merged report back — the same
// incremental machinery a local FileCache session uses. Reads go
// through the registry's counted storeGet, so run-triggered lookups
// show up in the hit/miss counters alongside report GETs.
type storeCache struct{ reg *Registry }

// Lookup implements servet.Cache; any store failure is a miss (the
// session then measures everything), matching the cache contract.
func (c storeCache) Lookup(fingerprint string) (*servet.Report, bool) {
	r, err := c.reg.storeGet(fingerprint)
	if err != nil {
		return nil, false
	}
	return r, true
}

// Store implements servet.Cache.
func (c storeCache) Store(fingerprint string, r *servet.Report) error {
	return c.reg.store.Put(r)
}
