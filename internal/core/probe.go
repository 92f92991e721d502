package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"servet/internal/report"
	"servet/internal/topology"
)

// Probe is one benchmark of the suite. Probes declare the probes they
// depend on by name; the engine runs them one after another in
// registry order, which is topological, and merges their Partials
// into the final report in that order.
type Probe interface {
	// Name identifies the probe ("cache-size", ...). Names are unique
	// across the registry.
	Name() string
	// Deps names the probes whose outputs this probe consumes. They
	// are guaranteed to have completed before Run is called.
	Deps() []string
	// Run executes the probe against the environment's machine. It
	// should return promptly once ctx is cancelled.
	Run(ctx context.Context, env *Env) (Partial, error)
	// scope returns the effective option fields the probe's
	// measurements depend on, as a plain JSON-marshalable struct. Two
	// option sets with equal scopes produce identical probe results,
	// so the scope's digest is the cache key component that
	// invalidates only the probes an option change actually affects.
	scope(opt Options) any
	// restore rebuilds the probe's Partial (report section plus the
	// typed Value dependent probes consume) from a saved report, so a
	// cached probe never has to execute. ok is false when the report
	// lacks a usable section.
	restore(r *report.Report) (Partial, bool)
}

// Partial is one probe's contribution to the final report.
type Partial struct {
	// Apply merges the probe's results into the report. Apply
	// functions are invoked sequentially in registry order after
	// every probe has completed; they never run concurrently. Nil
	// means the probe contributes only its timing.
	Apply func(r *report.Report)
	// SimulatedProbe is the virtual time the probe's measurements
	// consumed on the simulated machine (the Table I analogue).
	SimulatedProbe time.Duration
	// Value is the probe's typed output, available to dependent
	// probes through Env.Output.
	Value any
}

// Env is the shared environment a probe run executes in: the machine
// under test, the effective options, and the outputs of completed
// probes. Its outputs are guarded by a mutex, so a probe may read
// them from the workers of its own sweeps.
type Env struct {
	// Machine is the machine under test. Probes must treat it as
	// read-only: the workers of their sweeps share it.
	Machine *topology.Machine
	// Opt holds the effective (default-filled) options.
	Opt Options

	mu   sync.Mutex
	outs map[string]Partial
}

func newEnv(m *topology.Machine, opt Options) *Env {
	return &Env{Machine: m, Opt: opt, outs: make(map[string]Partial)}
}

func (e *Env) put(name string, p Partial) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.outs[name] = p
}

// Output returns the Partial of a probe that has completed or was
// restored from the cached report. Only read probes named in the
// caller's Deps: the engine guarantees those are present, while
// whether anything else is depends on which probes the run requested.
func (e *Env) Output(name string) (Partial, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.outs[name]
	return p, ok
}

// CacheLevels returns the cache levels detected by the cache-size
// probe. It fails when the cache-size probe has not completed, which
// means the calling probe forgot to declare it in Deps.
func (e *Env) CacheLevels() ([]DetectedCache, error) {
	p, ok := e.Output(probeCacheSize)
	if !ok {
		return nil, fmt.Errorf("core: probe %s has not completed (missing dependency?)", probeCacheSize)
	}
	levels, ok := p.Value.([]DetectedCache)
	if !ok {
		return nil, fmt.Errorf("core: probe %s produced %T, want cache levels", probeCacheSize, p.Value)
	}
	return levels, nil
}

// NoCacheLevelsError reports that the cache-size probe found no cache
// levels on a machine, so probes that need the detected L1 size (the
// communication-costs message size) cannot run.
type NoCacheLevelsError struct {
	// Machine is the model name the detection ran on.
	Machine string
}

func (e *NoCacheLevelsError) Error() string {
	return fmt.Sprintf("core: no cache levels detected on %s", e.Machine)
}

// ProbeError wraps a probe failure with the probe's name. The engine
// stops at the first failing probe, so a run reports at most one.
type ProbeError struct {
	// Probe is the failing probe's name.
	Probe string
	// Err is the probe's own error.
	Err error
}

// Error omits a "core:" prefix: the wrapped probe error carries one.
func (e *ProbeError) Error() string { return fmt.Sprintf("probe %s: %v", e.Probe, e.Err) }
func (e *ProbeError) Unwrap() error { return e.Err }

// UnknownProbeError reports a request for a probe name that is not in
// the registry.
type UnknownProbeError struct {
	// Name is the unknown probe name.
	Name string
	// Known lists the registered names.
	Known []string
}

func (e *UnknownProbeError) Error() string {
	return fmt.Sprintf("core: unknown probe %q (have %s)", e.Name, strings.Join(e.Known, ", "))
}

// Canonical probe names.
const (
	probeCacheSize = "cache-size"
	probeShared    = "shared-caches"
	probeMemory    = "memory-overhead"
	probeComm      = "communication-costs"
	probeTLB       = "tlb"
)

// ProbeNames lists every probe in canonical order.
func ProbeNames() []string {
	names := make([]string, len(registry))
	for i, p := range registry {
		names[i] = p.Name()
	}
	return names
}

// DefaultProbes lists the four paper benchmarks in the paper's order.
// The TLB extension probe is in the registry but not part of the
// default suite, matching the paper's Table I.
func DefaultProbes() []string {
	return []string{probeCacheSize, probeShared, probeMemory, probeComm}
}

// probeByName finds a probe in the registry.
func probeByName(name string) (Probe, error) {
	for _, p := range registry {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, &UnknownProbeError{Name: name, Known: ProbeNames()}
}

// probeClosure expands names to the requested probes plus their
// transitive dependencies, in canonical order.
func probeClosure(names []string) ([]Probe, error) {
	want := map[string]bool{}
	var expand func(name string) error
	expand = func(name string) error {
		if want[name] {
			return nil
		}
		p, err := probeByName(name)
		if err != nil {
			return err
		}
		want[name] = true
		for _, d := range p.Deps() {
			if err := expand(d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, name := range names {
		if err := expand(name); err != nil {
			return nil, err
		}
	}
	var probes []Probe
	for _, p := range registry {
		if want[p.Name()] {
			probes = append(probes, p)
		}
	}
	return probes, nil
}
