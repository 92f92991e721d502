package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"servet"
	"servet/internal/core"
	"servet/internal/memsys"
	"servet/internal/mpisim"
	"servet/internal/obs"
	"servet/internal/report"
	"servet/internal/server"
	"servet/internal/tune"
)

// The traced run (--trace 1) times calls into each layer's public
// functions from the benchmark's own code, and reads the counters and
// sweep spans the engine's existing obs.Tracer records. It adds no
// tracing inside the program. Every workload's traced run measures
// every layer; the trace.* metrics reconcile the layers against the
// named workload's own operation.

// layerRun collects the traced run's metrics and its operation
// counts.
type layerRun struct {
	metrics   map[string]metric
	attempted int
	failed    int
}

func (l *layerRun) set(name string, v float64, unit string) {
	l.metrics[name] = metric{v, unit}
}

// check records the outcome of one measured call.
func (l *layerRun) check(what string, err error) {
	l.attempted++
	if err != nil {
		if l.failed < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: trace: %s: %v\n", what, err)
		}
		l.failed++
	}
}

// timeN calls fn n times and returns the median wall time in
// milliseconds.
func (l *layerRun) timeN(what string, n int, fn func() error) float64 {
	return median(l.samples(what, n, fn))
}

// samples calls fn n times and returns each call's wall time in
// milliseconds.
func (l *layerRun) samples(what string, n int, fn func() error) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := fn()
		out = append(out, ms(time.Since(t0)))
		l.check(what, err)
	}
	return out
}

// allocKiB returns the heap KiB one call of fn allocates, averaged
// over n calls.
func (l *layerRun) allocKiB(what string, n int, fn func() error) float64 {
	b := allocDuring(func() {
		for i := 0; i < n; i++ {
			l.check(what, fn())
		}
	})
	return float64(b) / 1024 / float64(n)
}

// runTraced measures every layer, then reconciles the sum of the
// layers one operation of w crosses with that operation's untraced
// median: trace.overhead_ratio = layer_sum / untraced_p50 - 1. A layer
// that goes missing from the sum pulls the ratio negative.
func runTraced(w workload, seed int64) (result, error) {
	ctx := context.Background()
	l := &layerRun{metrics: make(map[string]metric)}
	layerSum := map[string]float64{}
	untraced := map[string]float64{}

	coreSum, err := measureCore(ctx, l)
	if err != nil {
		return result{}, err
	}
	layerSum["suite-cold"] = coreSum
	self, err := measureObs(ctx, l)
	if err != nil {
		return result{}, err
	}
	layerSum["suite-cold"] += self
	measureMemsys(l)
	if err := measurePlacements(ctx, l); err != nil {
		return result{}, err
	}
	measureMpisim(l)
	if layerSum["registry-mix"], untraced["registry-mix"], err = measureRegistry(ctx, l, seed); err != nil {
		return result{}, err
	}
	if layerSum["tune-search"], untraced["tune-search"], err = measureTune(ctx, l, seed); err != nil {
		return result{}, err
	}
	if w.name == "suite-cold" {
		var chk suiteChecker
		untraced["suite-cold"] = l.timeN("suite-cold op", 3, func() error {
			r, err := suiteColdOp(ctx)
			if err != nil {
				return err
			}
			return chk.check(r)
		})
	}
	sum, base := layerSum[w.name], untraced[w.name]
	l.set("trace.layer_sum_ms", sum, "ms")
	l.set("trace.untraced_p50_ms", base, "ms")
	l.set("trace.overhead_ratio", sum/base-1, "ratio")
	return result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: l.metrics}, nil
}

// coreStages are the four paper benchmarks a cold suite runs, in the
// session's order, as direct calls into internal/core.
var coreStages = []string{"mcalibrator", "shared_caches", "memory_overhead", "communication_costs"}

// stageCost is one timed run of the core stages.
type stageCost struct {
	ms, allocMiB [4]float64
}

// runCoreStages calls the four core stages once with the suite-cold
// options at the given parallelism.
func runCoreStages(ctx context.Context, par int) (stageCost, error) {
	m := servet.Nehalem2S()
	opt := core.Options{Parallelism: par}
	var c stageCost
	var levels []core.DetectedCache
	steps := [4]func() error{
		func() error {
			cal, err := core.McalibratorContext(ctx, m, 0, opt)
			levels = core.DetectCacheSizes(cal, m.PageBytes, opt)
			if err == nil && len(levels) != len(wantNehalem2S) {
				err = fmt.Errorf("detected %d cache levels, want %d", len(levels), len(wantNehalem2S))
			}
			return err
		},
		func() error { _, err := core.SharedCachesContext(ctx, m, levels, opt); return err },
		func() error { _, _, err := core.MemoryOverheadContext(ctx, m, opt); return err },
		func() error {
			_, _, err := core.CommunicationCostsContext(ctx, m, levels[0].SizeBytes, opt)
			return err
		},
	}
	for i, step := range steps {
		var err error
		t0 := time.Now()
		b := allocDuring(func() { err = step() })
		c.ms[i] = ms(time.Since(t0))
		c.allocMiB[i] = mib(b)
		if err != nil {
			return c, fmt.Errorf("core %s: %w", coreStages[i], err)
		}
	}
	return c, nil
}

// coreStageMedians runs the core stages reps times at each
// parallelism, interleaving the parallelisms so host drift hits them
// alike, and returns each stage's median time and allocation per
// parallelism.
func coreStageMedians(ctx context.Context, l *layerRun, pars []int, reps int) ([]stageCost, error) {
	runs := make([][]stageCost, len(pars))
	for i := 0; i < reps; i++ {
		for p, par := range pars {
			c, err := runCoreStages(ctx, par)
			l.check("core stages", err)
			if err != nil {
				return nil, err
			}
			runs[p] = append(runs[p], c)
		}
	}
	out := make([]stageCost, len(pars))
	for p := range pars {
		for s := range coreStages {
			var t, a []float64
			for _, c := range runs[p] {
				t, a = append(t, c.ms[s]), append(a, c.allocMiB[s])
			}
			out[p].ms[s], out[p].allocMiB[s] = median(t), median(a)
		}
	}
	return out, nil
}

// schedParallelism is the worker count the sched speed-ups compare
// the suite-cold parallelism against: the reference host's two vCPUs.
const schedParallelism = 2

// measureCore times the core stages at the suite-cold parallelism and
// at schedParallelism (the sched speed-ups). It returns the sum of the
// stages at the suite-cold parallelism.
func measureCore(ctx context.Context, l *layerRun) (float64, error) {
	m, err := coreStageMedians(ctx, l, []int{suiteParallelism, schedParallelism}, 3)
	if err != nil {
		return 0, err
	}
	seq, par := m[0], m[1]
	sum := 0.0
	for s, name := range coreStages {
		l.set("core."+name+"_ms", seq.ms[s], "ms")
		sum += seq.ms[s]
	}
	l.set("core.mcalibrator_alloc_mb", seq.allocMiB[0], "MiB")
	l.set("core.shared_caches_alloc_mb", seq.allocMiB[1], "MiB")
	l.set("core.communication_costs_alloc_mb", seq.allocMiB[3], "MiB")
	l.set("sched.mcalibrator_speedup", seq.ms[0]/par.ms[0], "ratio")
	l.set("sched.shared_caches_speedup", seq.ms[1]/par.ms[1], "ratio")
	return sum, nil
}

// placementSeeds is how many fixed page-placement seeds
// measurePlacements tries.
const placementSeeds = 8

// measurePlacements runs the session's cache-size pipeline (the
// mcalibrator sweep plus DetectCacheSizes) under placementSeeds fixed
// page-placement seeds and counts the placements under which it does
// not report nehalem2s's cache sizes. The suite-cold operation keeps
// the engine's default seed; this count is where the placement
// sensitivity of the detection shows.
func measurePlacements(ctx context.Context, l *layerRun) error {
	m := servet.Nehalem2S()
	misses := 0
	for i := 1; i <= placementSeeds; i++ {
		opt := core.Options{Parallelism: suiteParallelism, Seed: int64(splitmix(uint64(i))>>1) | 1}
		cal, err := core.McalibratorContext(ctx, m, 0, opt)
		l.check("placement sweep", err)
		if err != nil {
			return err
		}
		levels := core.DetectCacheSizes(cal, m.PageBytes, opt)
		ok := len(levels) == len(wantNehalem2S)
		for j := 0; ok && j < len(levels); j++ {
			ok = levels[j].SizeBytes == wantNehalem2S[j].SizeBytes
		}
		if !ok {
			misses++
		}
	}
	l.set("core.cache_size_misdetections", float64(misses), "count")
	return nil
}

// measureObs runs one traced suite-cold operation and reads the
// engine's own counters and spans. It returns the session's self time
// in milliseconds: the session span minus the time covered by at
// least one probe span (probes overlap at parallelism above 1, so
// their union, not their sum, is what the session waited for).
func measureObs(ctx context.Context, l *layerRun) (float64, error) {
	tr := obs.New()
	r, err := suiteColdOp(obs.WithTracer(ctx, tr))
	if err == nil {
		err = checkHierarchy(r)
	}
	l.check("traced suite-cold op", err)
	if err != nil {
		return 0, err
	}
	l.set("obs.sweep_measurements", float64(tr.Counter(obs.CounterSweepMeasurements)), "count")
	l.set("obs.memsys_instance_resets", float64(tr.Counter(obs.CounterMemsysReset)), "count")
	fresh := tr.Counter(obs.CounterScratchFresh)
	reused := tr.Counter(obs.CounterScratchReused)
	l.set("obs.scratch_reuse_ratio", float64(reused)/float64(fresh+reused), "ratio")
	spans := tr.Spans()
	l.set("sched.shared_chunk_imbalance", chunkImbalance(spans, "shared:"), "ratio")
	self := ms(selfTime(spans, spanIs("session", "run"), spanIs("probe", "")))
	l.set("session.cold_self_ms", self, "ms")
	return self, nil
}

// selfTime is the duration of the first span parent matches minus
// the part of it covered by the union of the spans child matches.
func selfTime(spans []obs.SpanRecord, parent, child func(obs.SpanRecord) bool) time.Duration {
	var p obs.SpanRecord
	found := false
	var kids [][2]time.Duration
	for _, s := range spans {
		switch {
		case !found && parent(s):
			p, found = s, true
		case child(s):
			kids = append(kids, [2]time.Duration{s.Start, s.Start + s.Dur})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	lo, hi := p.Start, p.Start+p.Dur
	covered, end := time.Duration(0), lo
	for _, k := range kids {
		a, b := max(k[0], end), min(k[1], hi)
		if b > a {
			covered += b - a
			end = b
		}
	}
	return p.Dur - covered
}

// chunkImbalance is max ÷ mean of the durations of the scheduler's
// spans whose task name starts with prefix (the chunks of one sweep).
// It is 0 when there are no such spans.
func chunkImbalance(spans []obs.SpanRecord, prefix string) float64 {
	var longest, sum time.Duration
	n := 0
	for _, s := range spans {
		if !spanIs("sched", prefix)(s) {
			continue
		}
		n++
		sum += s.Dur
		longest = max(longest, s.Dur)
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(longest) / (float64(sum) / float64(n))
}

// spanIs matches spans of one category whose name starts with prefix.
func spanIs(cat, prefix string) func(obs.SpanRecord) bool {
	return func(s obs.SpanRecord) bool { return s.Cat == cat && strings.HasPrefix(s.Name, prefix) }
}

// memsysSink keeps the simulated costs alive so the timed loops are
// not optimized away.
var memsysSink float64

// strided returns the addresses of a traversal of bytes from base.
func strided(base, bytes, stride int64) []int64 {
	out := make([]int64, 0, bytes/stride)
	for off := int64(0); off < bytes; off += stride {
		out = append(out, base+off)
	}
	return out
}

// measureMemsys times the memory simulator's unit operations on
// nehalem2s.
func measureMemsys(l *layerRun) {
	m := servet.Nehalem2S()
	llc := m.Caches[len(m.Caches)-1].SizeBytes
	in := memsys.NewInstance(m, 1)

	// accessNS is the median cost of one Access over addrs, after a
	// warm-up pass.
	accessNS := func(what string, addrs []int64, sp *memsys.Space, passes int) float64 {
		for _, a := range addrs {
			memsysSink += in.Access(0, sp, a)
		}
		per := l.samples(what, 5, func() error {
			for p := 0; p < passes; p++ {
				for _, a := range addrs {
					memsysSink += in.Access(0, sp, a)
				}
			}
			return nil
		})
		return median(per) * 1e6 / float64(passes*len(addrs))
	}
	sp := in.NewSpace()
	hot := sp.Alloc(16 << 10)
	l.set("memsys.access_hit_ns", accessNS("access hit", strided(hot.Base, hot.Bytes, 64), sp, 64), "ns")
	// A 1 KiB stride defeats the prefetcher, so every access misses.
	cold := sp.Alloc(4 * llc)
	l.set("memsys.access_miss_ns", accessNS("access miss", strided(cold.Base, cold.Bytes, 1<<10), sp, 2), "ns")

	// ResetAt after the instance served an L2-sized traversal.
	var resets []float64
	for i := 0; i < 20; i++ {
		sp := in.NewSpace()
		a := sp.Alloc(256 << 10)
		for _, addr := range strided(a.Base, a.Bytes, 64) {
			memsysSink += in.Access(0, sp, addr)
		}
		t0 := time.Now()
		in.ResetAt(1, int64(i))
		resets = append(resets, float64(time.Since(t0))/float64(time.Microsecond))
		l.check("reset", nil)
	}
	l.set("memsys.reset_us", median(resets), "us")

	// Two concurrent streams on cores of one socket, over arrays of
	// half an L2 each.
	sp = in.NewSpace()
	streams := make([]memsys.Stream, 2)
	total := 0
	for i := range streams {
		a := sp.Alloc(128 << 10)
		streams[i] = memsys.Stream{Core: i, Space: sp, Addrs: strided(a.Base, a.Bytes, 64)}
		total += len(streams[i].Addrs)
	}
	const passes = 3
	stats := make([]memsys.StreamStats, len(streams))
	per := l.samples("run concurrent", 20, func() error {
		memsys.RunConcurrentInto(in, streams, passes, stats)
		return nil
	})
	l.set("memsys.run_concurrent_ns", median(per)*1e6/float64(passes*total), "ns")
}

// measureMpisim times one ping-pong latency measurement between the
// two sockets of nehalem2s, with the communication-costs probe's
// default repetitions.
func measureMpisim(l *layerRun) {
	m := servet.Nehalem2S()
	v := l.timeN("ping-pong", 20, func() error {
		_, err := mpisim.PingPongOneWayNS(m, 0, 4, 32<<10, 25)
		return err
	})
	l.set("mpisim.pingpong_us", v*1e3, "us")
}

// mixTailOps is how many mix requests the traced run sends for the
// mix's p90.
const mixTailOps = 5000

// measureRegistry times the registry's layers on a primed fixture:
// session restore, report codec, store and each route's handler. It
// returns the layer sum and untraced median of a GET of the largest
// primed report (store read plus encode vs the whole request).
func measureRegistry(ctx context.Context, l *layerRun, seed int64) (sum, untraced float64, err error) {
	f, err := newRegistryFixture(seed)
	l.check("registry set-up", err)
	if err != nil {
		return 0, 0, err
	}
	big := 0
	for i, e := range f.entries {
		if len(e.report) > len(f.entries[big].report) {
			big = i
		}
	}
	e := f.entries[big]
	var rep report.Report
	if err := json.Unmarshal(e.report, &rep); err != nil {
		return 0, 0, fmt.Errorf("decode primed report: %w", err)
	}

	// Session restore on a primed MemoryCache.
	var nehalem servet.Report
	if err := json.Unmarshal(f.entries[0].report, &nehalem); err != nil {
		return 0, 0, fmt.Errorf("decode primed report: %w", err)
	}
	mc := servet.NewMemoryCache()
	if err := mc.Store(nehalem.Fingerprint, &nehalem); err != nil {
		return 0, 0, err
	}
	l.set("session.run_warm_ms", l.timeN("warm session", 20, func() error {
		s, err := servet.NewSession(servet.Nehalem2S(), servet.WithCache(mc))
		if err != nil {
			return err
		}
		r, err := s.Run(ctx)
		if err != nil {
			return err
		}
		for _, p := range r.Provenance {
			if p.Status != servet.ProvenanceCached {
				return fmt.Errorf("warm run measured probe %s", p.Probe)
			}
		}
		return nil
	}), "ms")

	// Report codec on the largest primed report.
	l.set("report.clone_ms", l.timeN("clone", 50, func() error { rep.Clone(); return nil }), "ms")
	encode := l.timeN("encode", 50, func() error { _, err := json.MarshalIndent(&rep, "", "  "); return err })
	l.set("report.encode_ms", encode, "ms")
	l.set("report.decode_ms", l.timeN("decode", 50, func() error {
		var r report.Report
		return json.Unmarshal(e.report, &r)
	}), "ms")

	// Store.
	st := server.NewMemStore()
	if err := st.Put(&rep); err != nil {
		return 0, 0, err
	}
	get := l.timeN("store get", 100, func() error { _, err := st.Get(e.fp); return err })
	l.set("store.get_ms", get, "ms")
	l.set("store.put_ms", l.timeN("store put", 100, func() error { return st.Put(&rep) }), "ms")

	// Routes, through ServeHTTP.
	st0, err := f.stats()
	if err != nil {
		return 0, 0, err
	}
	routes := []struct {
		class, fp, variant, n int
	}{
		{classGetReport, big, 0, 200},
		{classGetProbe, big, 3, 200},
		{classPutReport, big, 0, 200},
		{classRunWarm, big, 0, 100},
		{classTune, 0, 0, 50},
		{classScrape, 0, 0, 100},
	}
	for _, r := range routes {
		op := mixOp{class: r.class, fp: r.fp, variant: r.variant}
		v := l.timeN(classNames[r.class], r.n, func() error { return f.do(op) })
		l.set("server."+classNames[r.class]+"_ms", v, "ms")
		if r.class == classGetReport {
			untraced = v
		}
		if r.class == classGetReport || r.class == classPutReport || r.class == classRunWarm {
			l.set("server."+classNames[r.class]+"_alloc_kb",
				l.allocKiB(classNames[r.class], 50, func() error { return f.do(op) }), "KiB")
		}
	}
	// The mix itself, untraced: its tail is a per-layer diagnostic
	// (the wall-clock p90 of a run is too noisy on a shared host to
	// gate on).
	src := newMixSource(seed)
	mix := l.samples("mix request", mixTailOps, func() error { return f.do(src.next()) })
	if n := tailSamples(len(mix), 0.9); n < 10 {
		return 0, 0, fmt.Errorf("%d mix samples beyond p90, want 10", n)
	}
	l.set("server.mix_latency_p90_ms", percentile(mix, 0.9), "ms")

	st1, err := f.stats()
	if err != nil {
		return 0, 0, err
	}
	hits, misses := st1.StoreHits-st0.StoreHits, st1.StoreMisses-st0.StoreMisses
	l.set("server.store_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	delta := st1.ProbesExecuted - st0.ProbesExecuted
	l.set("server.probes_executed_delta", float64(delta), "count")
	if delta != 0 {
		l.check("probes_executed", fmt.Errorf("moved by %d", delta))
	}
	return get + encode, untraced, nil
}

// measureTune times the tune-search session's searches and single
// objective evaluations. It returns the tune-search layer sum (the
// three searches) and the untraced median of a whole session.
func measureTune(ctx context.Context, l *layerRun, seed int64) (sum, untraced float64, err error) {
	rep, err := characterizeForTune(ctx)
	l.check("characterize", err)
	if err != nil {
		return 0, 0, err
	}
	ss, err := tuneSession(seed)
	if err != nil {
		return 0, 0, err
	}
	evals := map[string]int{}
	searchMS := map[string]float64{}
	for _, s := range ss {
		s := s
		searchMS[s.name] = l.timeN(s.name+" search", 20, func() error {
			res, err := tune.Tune(ctx, rep, s.space, s.obj, s.opt)
			if err == nil {
				evals[s.name] = res.Evaluations
			}
			return err
		})
		l.set("tune."+s.name+"_search_ms", searchMS[s.name], "ms")
		sum += searchMS[s.name]
	}

	// One Objective.Eval of each objective, at a fixed configuration.
	// (Eval is the public, unpooled path: the tiled kernel builds a
	// fresh memory system per call, where a search reuses one.)
	evalMS := func(s search, n int, p tune.Point) float64 {
		cfg := s.space.Materialize(p)
		return l.timeN(s.name+" eval", n, func() error {
			_, err := s.obj.Eval(ctx, rep, &s.space, cfg)
			return err
		})
	}
	l.set("tune.tiled_kernel_eval_ms", evalMS(ss[0], 20, tune.Point{2}), "ms")
	l.set("tune.bcast_sim_eval_ms", evalMS(ss[1], 20, tune.Point{1, 0}), "ms")
	// A model evaluation takes well under a microsecond: time batches.
	const batch = 1000
	agg := ss[2]
	cfg := agg.space.Materialize(tune.Point{7})
	model := l.timeN("model eval", 10, func() error {
		for i := 0; i < batch; i++ {
			if _, err := agg.obj.Eval(ctx, rep, &agg.space, cfg); err != nil {
				return err
			}
		}
		return nil
	}) / batch
	l.set("tune.model_eval_us", model*1e3, "us")

	// The engine's own share of each search: the traced search span
	// minus the evaluation spans inside it, median of five searches.
	self := 0.0
	for _, s := range ss {
		var per []float64
		for i := 0; i < 5; i++ {
			tr := obs.New()
			_, err := tune.Tune(obs.WithTracer(ctx, tr), rep, s.space, s.obj, s.opt)
			l.check(s.name+" traced search", err)
			if err != nil {
				return 0, 0, err
			}
			per = append(per, ms(selfTime(tr.Spans(), spanIs("tune", "search:"), spanIs("tune", "eval:"))))
		}
		self += median(per)
	}
	l.set("tune.search_self_ms", self, "ms")
	l.set("tune.evaluations_per_op", float64(evals[ss[0].name]+evals[ss[1].name]+evals[ss[2].name]), "count")

	// Whole sessions, untraced, for the tail and the reconciliation.
	var chk tuneChecker
	lat := l.samples("tune-search op", 120, func() error {
		res, err := runSession(ctx, rep, ss)
		if err != nil {
			return err
		}
		return chk.check(res)
	})
	l.set("tune.latency_p90_ms", percentile(lat, 0.9), "ms")
	return sum, median(lat), nil
}
