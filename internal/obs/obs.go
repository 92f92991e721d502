// Package obs is the suite's zero-perturbation observability layer: a
// stdlib-only tracer that records spans (probe runs, sweep chunks,
// scheduler task lifecycles, tune rounds) and named counters (cache
// hits, pooled-instance resets, objective evaluations) as the engine
// runs. It exists to answer "where did the time go" — which probes
// dominated a report, how sweep chunks scheduled across workers,
// what the pooling saved — without ever feeding anything back into a
// measurement.
//
// The contract the engine depends on:
//
//   - Tracing never perturbs results. A Tracer only ever observes:
//     reports and TuneResults are byte-identical with tracing on,
//     off, or sampled (goldens in the root package pin this).
//   - The disabled path is free. The nil *Tracer is the disabled
//     tracer; every method nil-checks and returns, costing a few
//     instructions and zero allocations, so the instrumented hot
//     paths keep their 0 allocs/op gate (BENCH_9) with tracing off.
//   - Wall-clock reads live here and only here. The engine packages
//     call Start/End/Count, never time.Now; the time.Now sites in
//     this package are annotated //servet:wallclock and the package
//     is bound to the determinism contract (analysis.EnginePaths), so
//     servet-vet polices that the escape hatch stays narrow.
//
// A Tracer travels by context (WithTracer / FromContext); everything
// below a traced context — session runs, probe tasks, sharded sweeps,
// tune searches — records into it. Export with WriteChromeTrace
// (Chrome trace-event JSON, loadable in Perfetto or chrome://tracing)
// or Summary (a deterministic text rendering, sorted by name, that
// tests assert against).
package obs

import (
	"context"
	"sync"
	"time"
)

// Counter names the engine increments. Centralized so tests and the
// summary speak one vocabulary.
const (
	// CounterMemsysFresh counts memsys instances built from scratch by
	// sweep workers; CounterMemsysReset counts in-place ResetAt
	// recycles of a pooled instance. Their ratio is the pooling win.
	CounterMemsysFresh = "memsys.instance.fresh"
	CounterMemsysReset = "memsys.instance.reset"
	// CounterScratchFresh counts sweep scratch builds, one per worker;
	// CounterScratchReused counts each later chunk a worker runs on the
	// scratch it already holds.
	CounterScratchFresh  = "sweep.scratch.fresh"
	CounterScratchReused = "sweep.scratch.reused"
	// CounterSweepMeasurements counts individual sweep measurements.
	CounterSweepMeasurements = "sweep.measurements"
	// CounterCacheHit / CounterCacheMiss count session cache lookups.
	CounterCacheHit  = "cache.lookup.hit"
	CounterCacheMiss = "cache.lookup.miss"
	// CounterProbesRestored / CounterProbesRan count probes restored
	// from cache vs measured by the engine in a session run.
	CounterProbesRestored = "cache.probe.restored"
	CounterProbesRan      = "cache.probe.ran"
	// CounterTuneEvaluations counts objective evaluations.
	CounterTuneEvaluations = "tune.evaluations"
)

// SpanRecord is one finished span: a named interval on a lane of its
// category, with start and duration relative to the tracer's epoch.
type SpanRecord struct {
	// Cat groups spans into tracks: "session", "probe", "sweep",
	// "sched", "tune", "cache".
	Cat string
	// Name identifies the work within the category (probe name, sweep
	// name, sched task name, ...).
	Name string
	// Lane is the span's track within the category: the lowest lane
	// free when it started, so concurrent spans of one category render
	// side by side instead of overlapping.
	Lane int
	// Start and Dur locate the span relative to the tracer's epoch.
	Start, Dur time.Duration
}

// Tracer records spans and counters. The nil *Tracer is the disabled
// tracer: every method is a no-op, allocation-free nil check, so
// instrumented code calls unconditionally. A non-nil Tracer is safe
// for concurrent use — the engine's workers record into it from many
// goroutines.
type Tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []SpanRecord
	lanes    map[string][]bool
	counters map[string]int64
}

// New returns an enabled tracer whose epoch is now.
func New() *Tracer {
	epoch := time.Now() //servet:wallclock — trace epoch; observability only, never a measurement input
	return &Tracer{
		epoch:    epoch,
		lanes:    make(map[string][]bool),
		counters: make(map[string]int64),
	}
}

// ctxKey keys the tracer in a context.
type ctxKey struct{}

// WithTracer returns a context carrying the tracer; the engine layers
// below it (sessions, probes, sweeps, tunes, the scheduler) record
// into it. A nil tracer returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's tracer, or nil (the disabled
// tracer) when none is attached. The nil return is the fast path:
// callers use it unconditionally.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(ctxKey{}).(*Tracer)
	return t
}

// Span is an in-flight span handle. The zero Span (from the nil
// tracer) is a no-op; End is safe to call exactly once per Start.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	lane  int
	start time.Duration
}

// Start opens a span in the category, on the lowest lane currently
// free there. On the nil tracer it returns the no-op zero Span.
func (t *Tracer) Start(cat, name string) Span {
	if t == nil {
		return Span{}
	}
	//servet:wallclock — span timestamps; observability only, never a measurement input
	start := time.Since(t.epoch)
	t.mu.Lock()
	lanes := t.lanes[cat]
	lane := -1
	for i, busy := range lanes {
		if !busy {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(lanes)
		lanes = append(lanes, false)
	}
	lanes[lane] = true
	t.lanes[cat] = lanes
	t.mu.Unlock()
	return Span{t: t, cat: cat, name: name, lane: lane, start: start}
}

// End closes the span, recording it and releasing its lane.
func (s Span) End() {
	if s.t == nil {
		return
	}
	//servet:wallclock — span timestamps; observability only, never a measurement input
	dur := time.Since(s.t.epoch) - s.start
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, SpanRecord{Cat: s.cat, Name: s.name, Lane: s.lane, Start: s.start, Dur: dur})
	s.t.lanes[s.cat][s.lane] = false
	s.t.mu.Unlock()
}

// Count adds delta to the named counter. No-op on the nil tracer.
// Callers pass constant names so the disabled path stays
// allocation-free.
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Counter returns the named counter's value (0 on the nil tracer or
// an unknown name).
func (t *Tracer) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Counters returns a copy of every counter.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for name, v := range t.counters {
		out[name] = v
	}
	return out
}

// Spans returns a copy of the finished spans, in the order they
// ended.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// SpanCounts returns how many spans finished per "cat/name" key —
// the deterministic skeleton of a trace (counts depend only on what
// ran, never on how it interleaved), which tests assert against.
func (t *Tracer) SpanCounts() map[string]int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.spans))
	for _, s := range t.spans {
		out[s.Cat+"/"+s.Name]++
	}
	return out
}
