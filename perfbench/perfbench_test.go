package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"servet"
	"servet/internal/obs"
	"servet/internal/regproto"
	"servet/internal/tune"
)

func TestMixSequenceFollowsSeed(t *testing.T) {
	draw := func(seed int64) []mixOp {
		src := newMixSource(seed)
		out := make([]mixOp, 2000)
		for i := range out {
			out[i] = src.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same request sequence")
	}
}

func TestMixSharesMatchWeights(t *testing.T) {
	const n = 100000
	src := newMixSource(1)
	var count [numClasses]int
	for i := 0; i < n; i++ {
		op := src.next()
		count[op.class]++
		if op.class == classTune && op.fp != 0 {
			t.Fatalf("tune request addressed fingerprint %d, want nehalem2s", op.fp)
		}
	}
	for c, w := range classWeights {
		if got := 100 * float64(count[c]) / n; math.Abs(got-float64(w)) > 0.5 {
			t.Errorf("class %s: %.2f%% of requests, want %d%%", classNames[c], got, w)
		}
	}
}

func TestSearchSeedsFollowSeed(t *testing.T) {
	seeds := func(seed int64) []int64 {
		ss, err := tuneSession(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, s := range ss {
			out = append(out, s.opt.Seed)
		}
		return out
	}
	if a, b := seeds(3), seeds(3); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave search seeds %v and %v", a, b)
	}
	if a, b := seeds(3), seeds(4); reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 3 and 4 gave the same search seeds %v", a)
	}
	a, _ := tuneRequestBody(3)
	b, _ := tuneRequestBody(3)
	c, _ := tuneRequestBody(4)
	if !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Fatal("registry tune request does not follow the seed")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	orig := append([]float64(nil), xs...)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, orig) {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestTailSamples(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{100, 0.9, 10}, {20, 0.9, 2}, {1000, 0.9, 100}, {10, 0.5, 5}} {
		if got := tailSamples(c.n, c.q); got != c.want {
			t.Errorf("tailSamples(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestEndToEndResult(t *testing.T) {
	win := window{
		lat:       []time.Duration{4 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, time.Millisecond},
		failed:    1,
		cpu:       8 * time.Millisecond,
		allocated: 4 << 20,
		peakRSS:   64 << 20,
	}
	r := endToEndResult(win, []float64{3, 1, 2})
	if r.Correct || r.Attempted != 4 || r.Failed != 1 {
		t.Fatalf("got correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	want := map[string]float64{
		"setup_s": 2, "latency_p50_ms": 2.5,
		"cpu_ms_per_op": 2, "alloc_mb_per_op": 1, "peak_rss_mb": 64,
	}
	for name, v := range want {
		if got := r.Metrics[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
}

func TestSpanHelpers(t *testing.T) {
	ms := time.Millisecond
	spans := []obs.SpanRecord{
		{Cat: "session", Name: "run", Start: 0, Dur: 100 * ms},
		{Cat: "probe", Name: "a", Start: 10 * ms, Dur: 40 * ms},
		{Cat: "probe", Name: "b", Start: 30 * ms, Dur: 40 * ms}, // overlaps a
		{Cat: "probe", Name: "c", Start: 80 * ms, Dur: 10 * ms},
		{Cat: "sched", Name: "shared:0", Dur: 10 * ms},
		{Cat: "sched", Name: "shared:1", Dur: 30 * ms},
		{Cat: "sched", Name: "mcal:0", Dur: 90 * ms},
	}
	// Probes cover [10,70) and [80,90): 70 ms of the 100 ms run.
	if got := selfTime(spans, spanIs("session", "run"), spanIs("probe", "")); got != 30*ms {
		t.Errorf("selfTime = %v, want 30ms", got)
	}
	if got := chunkImbalance(spans, "shared:"); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("chunkImbalance = %g, want 1.5", got)
	}
	if got := chunkImbalance(spans, "none:"); got != 0 {
		t.Errorf("chunkImbalance without spans = %g, want 0", got)
	}
}

// goodReport is a report with nehalem2s's hierarchy and some wall
// clock fields set.
func goodReport() *servet.Report {
	r := &servet.Report{Machine: "nehalem2s"}
	for _, c := range wantNehalem2S {
		r.Caches = append(r.Caches, servet.CacheResult{Level: c.Level, SizeBytes: c.SizeBytes, SharedGroups: c.SharedGroups})
	}
	r.Memory.RefBandwidthGBs = 5.5
	r.Timings = []servet.StageTiming{{Stage: "cache-size", Wall: time.Second}}
	r.Provenance = []servet.ProbeProvenance{{Probe: "cache-size", Status: servet.ProvenanceRan, Timestamp: time.Now(), Wall: time.Second}}
	return r
}

func TestSuiteCheckRejectsCorruptReports(t *testing.T) {
	var chk suiteChecker
	if err := chk.check(goodReport()); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	later := goodReport()
	later.Timings[0].Wall = 2 * time.Second
	later.Provenance[0].Timestamp = time.Now().Add(time.Hour)
	later.Provenance[0].Wall = 3 * time.Second
	if err := chk.check(later); err != nil {
		t.Fatalf("report differing only in wall-clock fields rejected: %v", err)
	}
	corrupt := map[string]func(r *servet.Report){
		"L2 size":       func(r *servet.Report) { r.Caches[1].SizeBytes = 288 << 10 },
		"L2 shared":     func(r *servet.Report) { r.Caches[1].SharedGroups = [][]int{{0, 1}} },
		"L3 groups":     func(r *servet.Report) { r.Caches[2].SharedGroups = [][]int{{0, 1, 2, 3, 4, 5, 6, 7}} },
		"missing level": func(r *servet.Report) { r.Caches = r.Caches[:2] },
		"other section": func(r *servet.Report) { r.Memory.RefBandwidthGBs = 5.4 },
	}
	for name, mutate := range corrupt {
		r := goodReport()
		mutate(r)
		if err := chk.check(r); err == nil {
			t.Errorf("%s: corrupt report passed the check", name)
		}
	}
}

func TestTuneCheckRejectsCorruptResults(t *testing.T) {
	res := func(tile int64, score float64) *tune.Result {
		return &tune.Result{Best: tune.Config{{Int: tile}}, BestScore: score}
	}
	var chk tuneChecker
	if err := chk.check([]*tune.Result{res(16, 2.5), res(1, 7)}); err != nil {
		t.Fatal(err)
	}
	if err := chk.check([]*tune.Result{res(16, 2.5), res(1, 7)}); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	if err := chk.check([]*tune.Result{res(32, 2.5), res(1, 7)}); err == nil {
		t.Error("different best configuration passed")
	}
	if err := chk.check([]*tune.Result{res(16, 2.5), res(1, 7.000001)}); err == nil {
		t.Error("different best score passed")
	}
}

func TestRegistryChecksRejectCorruptResponses(t *testing.T) {
	if testing.Short() {
		t.Skip("primes a registry")
	}
	f, err := newRegistryFixture(1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < numClasses; c++ {
		for v := 0; v < 2; v++ {
			if err := f.do(mixOp{class: c, fp: 1, variant: v}); err != nil {
				t.Fatalf("%s on a primed registry: %v", classNames[c], err)
			}
		}
	}

	// A tune reply with another best score or fingerprint.
	var res tune.Result
	body := f.serve(http.MethodPost, regproto.TunePath, f.tuneBody).Body.Bytes()
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if err := f.checkTune(body); err != nil {
		t.Fatalf("genuine tune reply rejected: %v", err)
	}
	for name, mutate := range map[string]func(*tune.Result){
		"score":       func(r *tune.Result) { r.BestScore *= 1.01 },
		"best":        func(r *tune.Result) { r.Best = tune.Config{{Int: r.Best[0].Int + 1}} },
		"fingerprint": func(r *tune.Result) { r.Fingerprint = f.entries[1].fp },
	} {
		cp := res
		mutate(&cp)
		b, _ := json.Marshal(&cp)
		if err := f.checkTune(b); err == nil {
			t.Errorf("tune reply with corrupt %s passed", name)
		}
	}

	// A corrupted stored report fails the GET checks; a 404 fails the
	// status check.
	var rep servet.Report
	if err := json.Unmarshal(f.entries[1].report, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Memory.RefBandwidthGBs++
	b, _ := json.Marshal(&rep)
	if _, err := f.serveOK(http.MethodPut, regproto.ReportPath(rep.Fingerprint), b); err != nil {
		t.Fatal(err)
	}
	if err := f.do(mixOp{class: classGetReport, fp: 1}); err == nil {
		t.Error("GET of a corrupted report passed")
	}
	if err := f.do(mixOp{class: classGetProbe, fp: 1, variant: 2}); err == nil {
		t.Error("GET of a corrupted probe section passed")
	}
	if _, err := f.serveOK(http.MethodGet, regproto.ReportPath("sha256:none"), nil); err == nil {
		t.Error("404 passed the status check")
	}

	// A request that runs a probe moves probes_executed.
	if _, err := f.serveOK(http.MethodPost, regproto.RunPath, []byte(`{"machine":"tlb-box","quick":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := f.checkProbesExecuted(); err == nil {
		t.Error("probes_executed moved but the check passed")
	}
}

// declared reads the metric units BENCHMARK.json declares, by name.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	index := func(ds []decl) map[string]string {
		out := make(map[string]string, len(ds))
		for _, d := range ds {
			out[d.Name] = d.Unit
		}
		return out
	}
	return index(b.EndToEnd), index(b.PerLayer)
}

// checkResult fails unless r is correct and reports exactly the
// declared metrics, each finite and in its declared unit.
func checkResult(t *testing.T, r result, want map[string]string) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := r.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s missing", name)
		case m.Unit != unit:
			t.Errorf("%s in %q, declared %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %g", name, m.Value)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's set-up")
	}
	endToEnd, _ := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runEndToEnd(w, 1, time.Nanosecond)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, endToEnd)
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer")
	}
	_, perLayer := declared(t)
	w, _ := findWorkload("tune-search")
	r, err := runTraced(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, perLayer)
	if v := r.Metrics["server.probes_executed_delta"].Value; v != 0 {
		t.Errorf("probes_executed moved by %g during the traced run", v)
	}
}
