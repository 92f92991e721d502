package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"

	"servet"
	"servet/internal/regproto"
	"servet/internal/server"
	"servet/internal/tune"
)

// primedRuns are the run requests set-up posts to the registry: five
// machines at full fidelity and a two-node FinisTerrae at quick
// fidelity.
var primedRuns = []regproto.RunRequest{
	{Machine: "nehalem2s"},
	{Machine: "dempsey"},
	{Machine: "athlon3200"},
	{Machine: "colored-smp"},
	{Machine: "smt-quad"},
	{Machine: "finisterrae", Nodes: 2, Quick: true},
}

// reportProbes are the probe sections GET /probes/{probe} asks for.
var reportProbes = []string{"cache-size", "shared-caches", "memory-overhead", "communication-costs"}

// Request classes of the registry mix.
const (
	classGetReport = iota
	classGetProbe
	classPutReport
	classRunWarm
	classTune
	classScrape
	numClasses
)

var classNames = [numClasses]string{"get_report", "get_probe", "put_report", "run_warm", "tune_model", "scrape"}

// classWeights are the shares of the mix, in percent.
var classWeights = [numClasses]int{45, 15, 15, 15, 8, 2}

// mixOp is one request of the mix: its class, the primed fingerprint
// it addresses, and the class's variant (the probe section for
// get_probe, /metrics vs /v1/stats for scrape).
type mixOp struct {
	class, fp, variant int
}

// mixSource draws the mix's request sequence from the benchmark seed.
type mixSource struct{ rng *rand.Rand }

func newMixSource(seed int64) *mixSource {
	return &mixSource{rng: rand.New(rand.NewPCG(uint64(seed), 0x72656769737472))}
}

func (s *mixSource) next() mixOp {
	x := s.rng.IntN(100)
	class := 0
	for x >= classWeights[class] {
		x -= classWeights[class]
		class++
	}
	op := mixOp{class: class, fp: s.rng.IntN(len(primedRuns))}
	switch class {
	case classGetProbe:
		op.variant = s.rng.IntN(len(reportProbes))
	case classScrape:
		op.variant = s.rng.IntN(2)
	case classTune:
		op.fp = 0 // the tune class always tunes against nehalem2s
	}
	return op
}

// primedEntry is what set-up recorded for one primed fingerprint: the
// request bodies the mix sends and the response bodies it expects.
type primedEntry struct {
	fp       string
	runBody  []byte
	report   []byte   // GET /v1/reports/{fp} body, also the PUT body
	probes   [][]byte // GET .../probes/{probe} bodies, by reportProbes index
	runReply []byte   // POST /v1/run body
}

// registryFixture is a primed in-process registry driven through
// ServeHTTP with httptest requests (no sockets).
type registryFixture struct {
	reg      *server.Registry
	entries  []primedEntry
	tuneBody []byte
	tuneWant bestOf // set-up's tune answer
	probes0  int64  // probes_executed after set-up
}

// tuneRequestBody is the mix's tune class: a seeded anneal of the
// message-aggregation cost model against the primed nehalem2s report.
func tuneRequestBody(seed int64) ([]byte, error) {
	return json.Marshal(regproto.TuneRequest{
		Run:       primedRuns[0],
		Space:     tune.Space{Axes: []tune.Axis{tune.IntRange("batch", 1, 64, 1)}},
		Objective: tune.ObjectiveSpec{Name: tune.ObjectiveAggregationModel, Params: json.RawMessage(`{"bytes":256,"messages":64}`)},
		Strategy:  tune.StrategyAnneal,
		Seed:      int64(splitmix(uint64(seed))>>33) + 1,
		Budget:    32,
	})
}

// serve runs one request through the registry's handler.
func (f *registryFixture) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	f.reg.ServeHTTP(w, req)
	return w
}

// serveOK is serve failing on any non-2xx status.
func (f *registryFixture) serveOK(method, path string, body []byte) (*httptest.ResponseRecorder, error) {
	w := f.serve(method, path, body)
	if w.Code < 200 || w.Code > 299 {
		return w, fmt.Errorf("%s %s: status %d: %s", method, path, w.Code, strings.TrimSpace(w.Body.String()))
	}
	return w, nil
}

// newRegistryFixture primes a fresh registry: one cold POST /v1/run
// per primed machine, then one warm run each, after which the stored
// entries are a fixed point (a warm run restores every section and
// stores back the identical report). It records the bodies every
// later request must return.
func newRegistryFixture(seed int64) (*registryFixture, error) {
	f := &registryFixture{reg: server.New(server.NewMemStore())}
	for _, rr := range primedRuns {
		body, err := json.Marshal(rr)
		if err != nil {
			return nil, err
		}
		if _, err := f.serveOK(http.MethodPost, regproto.RunPath, body); err != nil {
			return nil, err
		}
		w, err := f.serveOK(http.MethodPost, regproto.RunPath, body)
		if err != nil {
			return nil, err
		}
		var rep servet.Report
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("decode run reply: %w", err)
		}
		e := primedEntry{fp: rep.Fingerprint, runBody: body, runReply: w.Body.Bytes()}
		if w, err = f.serveOK(http.MethodGet, regproto.ReportPath(e.fp), nil); err != nil {
			return nil, err
		}
		e.report = w.Body.Bytes()
		for _, p := range reportProbes {
			if w, err = f.serveOK(http.MethodGet, regproto.ProbePath(e.fp, p), nil); err != nil {
				return nil, err
			}
			e.probes = append(e.probes, w.Body.Bytes())
		}
		f.entries = append(f.entries, e)
	}
	var err error
	if f.tuneBody, err = tuneRequestBody(seed); err != nil {
		return nil, err
	}
	w, err := f.serveOK(http.MethodPost, regproto.TunePath, f.tuneBody)
	if err != nil {
		return nil, err
	}
	var res tune.Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("decode tune reply: %w", err)
	}
	f.tuneWant = bestOf{res.Best, res.BestScore}
	st, err := f.stats()
	if err != nil {
		return nil, err
	}
	f.probes0 = st.ProbesExecuted
	return f, nil
}

// stats reads GET /v1/stats.
func (f *registryFixture) stats() (regproto.Stats, error) {
	var st regproto.Stats
	w, err := f.serveOK(http.MethodGet, regproto.StatsPath, nil)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("decode stats: %w", err)
	}
	return st, nil
}

// do sends one mix request and checks its response.
func (f *registryFixture) do(op mixOp) error {
	e := &f.entries[op.fp]
	switch op.class {
	case classGetReport:
		w, err := f.serveOK(http.MethodGet, regproto.ReportPath(e.fp), nil)
		if err != nil {
			return err
		}
		return checkBody("report "+e.fp, w.Body.Bytes(), e.report)
	case classGetProbe:
		p := reportProbes[op.variant]
		w, err := f.serveOK(http.MethodGet, regproto.ProbePath(e.fp, p), nil)
		if err != nil {
			return err
		}
		return checkBody("probe "+p+" of "+e.fp, w.Body.Bytes(), e.probes[op.variant])
	case classPutReport:
		_, err := f.serveOK(http.MethodPut, regproto.ReportPath(e.fp), e.report)
		return err
	case classRunWarm:
		w, err := f.serveOK(http.MethodPost, regproto.RunPath, e.runBody)
		if err != nil {
			return err
		}
		return checkBody("run "+e.fp, w.Body.Bytes(), e.runReply)
	case classTune:
		w, err := f.serveOK(http.MethodPost, regproto.TunePath, f.tuneBody)
		if err != nil {
			return err
		}
		return f.checkTune(w.Body.Bytes())
	default:
		if op.variant == 0 {
			w, err := f.serveOK(http.MethodGet, regproto.MetricsPath, nil)
			if err != nil {
				return err
			}
			if !bytes.Contains(w.Body.Bytes(), []byte("servet_probes_executed")) {
				return fmt.Errorf("/metrics lacks servet_probes_executed")
			}
			return nil
		}
		return f.checkProbesExecuted()
	}
}

// checkBody fails unless a response body equals the primed one.
func checkBody(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: body differs from the primed one (%d vs %d bytes)", what, len(got), len(want))
	}
	return nil
}

// checkTune fails unless a tune reply names the requested fingerprint
// and repeats set-up's best configuration and score.
func (f *registryFixture) checkTune(body []byte) error {
	var res tune.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decode tune reply: %w", err)
	}
	if res.Fingerprint != f.entries[0].fp {
		return fmt.Errorf("tune reply for fingerprint %q, want %q", res.Fingerprint, f.entries[0].fp)
	}
	if got := (bestOf{res.Best, res.BestScore}); !got.same(f.tuneWant) {
		return fmt.Errorf("tune best %v, want %v", got, f.tuneWant)
	}
	return nil
}

// checkProbesExecuted fails if any request since set-up ran a probe:
// every request of the mix must be served from the primed store.
func (f *registryFixture) checkProbesExecuted() error {
	st, err := f.stats()
	if err != nil {
		return err
	}
	if st.ProbesExecuted != f.probes0 {
		return fmt.Errorf("probes_executed moved from %d to %d", f.probes0, st.ProbesExecuted)
	}
	return nil
}

// registryWarmOps is how many mix requests set-up sends before the
// window; even the 2% scrape class is expected six times.
const registryWarmOps = 300

func setupRegistryMix(seed int64) (opFunc, func() error, error) {
	f, err := newRegistryFixture(seed)
	if err != nil {
		return nil, nil, err
	}
	src := newMixSource(seed)
	op := func() error { return f.do(src.next()) }
	for i := 0; i < registryWarmOps; i++ {
		if err := op(); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return op, f.checkProbesExecuted, nil
}
