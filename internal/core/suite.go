package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"servet/internal/obs"
	"servet/internal/report"
	"servet/internal/sched"
	"servet/internal/topology"
)

// Suite runs Servet probes on a machine and assembles the
// install-time report. Probes come from the package registry and run
// one after another in its canonical order, which is topological, so
// every probe reads its dependencies' sections from the report;
// Options.Parallelism fans out the sweeps inside each probe that pay
// for it (see Options.Parallelism). Each
// probe writes its own section of the report in canonical order.
type Suite struct {
	m   *topology.Machine
	opt Options
}

// NewSuite validates the machine and prepares a suite with the given
// options.
func NewSuite(m *topology.Machine, opt Options) (*Suite, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Suite{m: m, opt: opt.withDefaults(m)}, nil
}

// Machine returns the machine under test.
func (s *Suite) Machine() *topology.Machine { return s.m }

// Options returns the effective (default-filled) options.
func (s *Suite) Options() Options { return s.opt }

// CalibrateCores runs the Fig. 1 calibration loop on each of the given
// node-local cores (no cores means all of them), fanning the per-core
// runs through sched.Sweep under Options.Parallelism. Each
// measurement builds its own memory-system instance from stable keys,
// so the results are identical to a sequential per-core loop at any
// parallelism.
// Calibrations come back in the order the cores were given.
func (s *Suite) CalibrateCores(ctx context.Context, cores ...int) ([]Calibration, error) {
	if len(cores) == 0 {
		cores = make([]int, s.m.CoresPerNode)
		for i := range cores {
			cores[i] = i
		}
	}
	for _, c := range cores {
		if c < 0 || c >= s.m.CoresPerNode {
			return nil, fmt.Errorf("core: calibrate core %d: machine %s has %d cores per node", c, s.m.Name, s.m.CoresPerNode)
		}
	}
	return sched.Sweep(ctx, "cores", len(cores), s.opt.Parallelism, nil, func(_ struct{}, i int) (Calibration, error) {
		return McalibratorContext(ctx, s.m, cores[i], s.opt)
	})
}

// RunProbes executes the named probes plus their transitive
// dependencies (no names means DefaultProbes, the four paper
// benchmarks), recording per-stage wall and simulated-probe times
// (Table I). It is Run without a cached report, minus the provenance.
func (s *Suite) RunProbes(ctx context.Context, names ...string) (*report.Report, error) {
	r, _, err := s.Run(ctx, nil, names...)
	return r, err
}

// Run executes the named probes plus their transitive dependencies
// (no names means DefaultProbes) against a cached report (nil means
// none), and returns the report together with one provenance
// row per section it holds. Sections, timing rows and provenance rows
// all follow the canonical order.
//
// Run walks the registry once and gives each probe one of four
// outcomes:
//   - restored: the probe is in the closure, its cached options digest
//     equals this run's, every dependency was restored, and its
//     section restores from the cached report. The row is "cached" and
//     keeps the original measurement timestamp and wall cost.
//   - ran: any other probe in the closure. It executes now.
//   - carried: the probe is outside the closure and has cached
//     provenance, each dependency is either in the closure with its
//     cached digest equal to this run's (probes are deterministic, so
//     an equal digest means an identical output whether it ran or was
//     restored) or was itself carried, and its section restores. The
//     row is "cached" and keeps its old digest, timestamp and wall, so
//     a subset run narrows neither the report nor a cache entry it is
//     stored back into.
//   - dropped: anything else. A stale section and its row are left
//     out, so a later run re-measures the probe.
//
// Probes that did not run keep a Table I timing row with zero wall
// time. A probe failure is returned as a *ProbeError and stops the run
// before the next probe starts; cancelling the context aborts the run
// with the plain context error, even when no probe had to execute.
func (s *Suite) Run(ctx context.Context, cached *report.Report, names ...string) (*report.Report, []report.ProbeProvenance, error) {
	if len(names) == 0 {
		names = DefaultProbes()
	}
	closure, err := probeClosure(names)
	if err != nil {
		return nil, nil, err
	}
	inClosure := make(map[string]bool, len(closure))
	for _, p := range closure {
		inClosure[p.Name()] = true
	}

	// Probe spans and counters record into the context's tracer (nil
	// when the run is untraced): one "probe" span per executed probe,
	// so a trace shows which stages dominated the run.
	tr := obs.FromContext(ctx)
	r := &report.Report{
		Machine:      s.m.Name,
		ClockGHz:     s.m.ClockGHz,
		Nodes:        s.m.Nodes,
		CoresPerNode: s.m.CoresPerNode,
	}
	var prov []report.ProbeProvenance
	digests := make(map[string]string, len(closure))
	restored := map[string]bool{}
	carried := map[string]bool{}
	var ran int64
	for _, p := range registry {
		name := p.Name()
		var old *report.ProbeProvenance
		if cached != nil {
			old = cached.ProvenanceFor(name)
		}
		if !inClosure[name] {
			if old == nil || !allDeps(p, func(d string) bool {
				if inClosure[d] {
					dold := cached.ProvenanceFor(d)
					return dold != nil && dold.OptionsDigest == digests[d]
				}
				return carried[d]
			}) || !p.restore(r, cached) {
				continue
			}
			carried[name] = true
			row := *old
			row.Status = report.ProvenanceCached
			r.Timings = append(r.Timings, cachedTiming(cached, name))
			prov = append(prov, row)
			continue
		}

		digest, err := s.digest(p)
		if err != nil {
			return nil, nil, err
		}
		digests[name] = digest
		if old != nil && old.OptionsDigest == digest && allDeps(p, func(d string) bool { return restored[d] }) && p.restore(r, cached) {
			restored[name] = true
			r.Timings = append(r.Timings, cachedTiming(cached, name))
			prov = append(prov, report.ProbeProvenance{
				Probe: name, Status: report.ProvenanceCached,
				OptionsDigest: digest, Timestamp: old.Timestamp, Wall: old.Wall,
			})
			continue
		}

		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sp := tr.Start("probe", name)
		t0 := time.Now() //servet:wallclock — probe wall-time provenance (report Timings), never a measurement input
		sim, err := p.Run(ctx, s.m, s.opt, r)
		//servet:wallclock
		wall := time.Since(t0)
		sp.End()
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
				return nil, nil, ctxErr
			}
			return nil, nil, &ProbeError{Probe: name, Err: err}
		}
		ran++
		r.Timings = append(r.Timings, report.StageTiming{Stage: name, Wall: wall, SimulatedProbe: sim})
		prov = append(prov, report.ProbeProvenance{
			Probe: name, Status: report.ProvenanceRan, OptionsDigest: digest, Wall: wall,
		})
	}
	// A caller that cancelled during (or before) the run gets its
	// context error, even when no probe executed.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	now := time.Now().UTC() //servet:wallclock — provenance timestamp, never a measurement input
	for i := range prov {
		if prov[i].Status == report.ProvenanceRan {
			prov[i].Timestamp = now
		}
	}
	tr.Count(obs.CounterProbesRestored, int64(len(restored)))
	tr.Count(obs.CounterProbesRan, ran)
	return r, prov, nil
}

// allDeps reports whether ok holds for every dependency of p.
func allDeps(p Probe, ok func(dep string) bool) bool {
	for _, d := range p.Deps() {
		if !ok(d) {
			return false
		}
	}
	return true
}
