package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"servet/internal/report"
	"servet/internal/topology"
)

// Probe is one benchmark of the suite. Probes declare the probes they
// depend on by name; the engine runs them one after another in
// registry order, which is topological, and each writes its own
// section of the report, so a probe reads its dependencies' results
// from the sections they wrote before it.
type Probe interface {
	// Name identifies the probe ("cache-size", ...). Names are unique
	// across the registry.
	Name() string
	// Deps names the probes whose sections this probe reads. Their
	// sections are in the report before Run is called.
	Deps() []string
	// Run measures the probe on m, writes its section into r, and
	// returns the simulated probe time (the Table I analogue). r
	// already holds every dependency's section. m is read-only: the
	// workers of the probe's sweeps share it. Run should return
	// promptly once ctx is cancelled.
	Run(ctx context.Context, m *topology.Machine, opt Options, r *report.Report) (time.Duration, error)
	// scope returns the effective option fields the probe's
	// measurements depend on, as a plain JSON-marshalable struct. Two
	// option sets with equal scopes produce identical probe results,
	// so the scope's digest is the cache key component that
	// invalidates only the probes an option change actually affects.
	scope(opt Options) any
	// restore copies the probe's section from the saved report src
	// into dst, so a cached probe never has to execute. It returns
	// false, writing nothing, when src lacks a usable section.
	restore(dst, src *report.Report) bool
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
