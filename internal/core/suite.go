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
// one after another in registration order, which is topological, so
// every probe sees its dependencies' outputs; Options.Parallelism
// fans out the sweeps inside each probe. Results merge into the
// report in registration order.
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

// DetectCaches runs the adaptive standalone cache detection on core 0:
// mcalibrator over the standard grid, then refined re-measurement of
// each smeared transition window (see the package-level DetectCaches).
// The in-suite cache-size probe fits the raw curve instead, whose
// probe-cost accounting Table I pins.
func (s *Suite) DetectCaches(ctx context.Context) ([]DetectedCache, Calibration, error) {
	return DetectCaches(ctx, s.m, 0, s.opt)
}

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
// (Table I). Probes run sequentially in registration order; results
// merge into the report in that order, with one StageTiming per
// executed probe. A probe failure is returned as a *ProbeError and
// stops the run before the next probe starts; cancelling the context
// aborts the run with the plain context error.
func (s *Suite) RunProbes(ctx context.Context, names ...string) (*report.Report, error) {
	r, _, err := s.RunSeeded(ctx, nil, names...)
	return r, err
}

// RunSeeded is RunProbes with precomputed partials: probes named in
// seeded (typically restored from a cache via Restore) are not
// executed — their partial goes straight into the environment, where
// it both satisfies dependents and merges into the report in the
// usual canonical order. Only the remaining probes run.
// executed lists the probes that actually ran, in canonical order;
// seeded probes keep a Table I timing row with zero wall time.
func (s *Suite) RunSeeded(ctx context.Context, seeded map[string]Partial, names ...string) (_ *report.Report, executed []string, _ error) {
	if len(names) == 0 {
		names = DefaultProbes()
	}
	probes, err := probeClosure(names)
	if err != nil {
		return nil, nil, err
	}

	// Probes run one after another in canonical order, which the
	// registry makes topological: every dependency has completed (or
	// was seeded) before its dependents start. Probe spans record into
	// the context's tracer (nil when the run is untraced): one "probe"
	// span per executed probe, so a trace shows which stages dominated
	// the run.
	env := newEnv(s.m, s.opt)
	tr := obs.FromContext(ctx)
	walls := make(map[string]time.Duration, len(probes))
	for _, p := range probes {
		name := p.Name()
		if part, ok := seeded[name]; ok {
			env.put(name, part)
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sp := tr.Start("probe", name)
		t0 := time.Now() //servet:wallclock — probe wall-time provenance (report Timings), never a measurement input
		part, err := p.Run(ctx, env)
		//servet:wallclock
		wall := time.Since(t0)
		sp.End()
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
				return nil, nil, ctxErr
			}
			return nil, nil, &ProbeError{Probe: name, Err: err}
		}
		env.put(name, part)
		walls[name] = wall
	}
	// A caller that cancelled during (or before) the run gets its
	// context error, even when every probe was seeded.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	r := &report.Report{
		Machine:      s.m.Name,
		ClockGHz:     s.m.ClockGHz,
		Nodes:        s.m.Nodes,
		CoresPerNode: s.m.CoresPerNode,
	}
	for _, p := range probes {
		name := p.Name()
		part, _ := env.Output(name)
		if part.Apply != nil {
			part.Apply(r)
		}
		timing := report.StageTiming{
			Stage:          name,
			SimulatedProbe: part.SimulatedProbe,
		}
		if wall, ok := walls[name]; ok {
			timing.Wall = wall
			executed = append(executed, name)
		}
		r.Timings = append(r.Timings, timing)
	}
	return r, executed, nil
}
