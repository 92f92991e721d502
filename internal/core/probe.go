package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"servet/internal/report"
	"servet/internal/topology"
)

// Probe is one pluggable benchmark of the suite. Probes declare the
// probes they depend on by name; the engine runs them one after
// another in registration order, which Register keeps topological,
// and merges their Partials into the final report in that order.
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
}

// Partial is one probe's contribution to the final report.
type Partial struct {
	// Apply merges the probe's results into the report. Apply
	// functions are invoked sequentially in registration order after
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
// seeded. Only read probes named in the caller's Deps: the engine
// guarantees those are present, while whether anything else is
// depends on which probes the run requested.
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

var (
	regMu    sync.RWMutex
	registry []Probe
	regIndex = map[string]int{}
)

// Register adds a probe to the registry. Probe order at registration
// is the canonical order: the engine merges Partials and emits
// timings in it, so a probe's dependencies must be registered before
// it — that keeps registration order topological and lets an Apply
// build on what its dependencies merged. Register panics on an empty
// or duplicate name or an unregistered dependency — registration is
// an init-time programming act, not a runtime input.
func Register(p Probe) {
	name := p.Name()
	if name == "" {
		panic("core: Register: probe with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regIndex[name]; dup {
		panic(fmt.Sprintf("core: Register: duplicate probe %q", name))
	}
	for _, d := range p.Deps() {
		if _, ok := regIndex[d]; !ok {
			panic(fmt.Sprintf("core: Register: probe %q depends on unregistered probe %q (register dependencies first)", name, d))
		}
	}
	regIndex[name] = len(registry)
	registry = append(registry, p)
}

// ProbeNames lists every registered probe in canonical order.
func ProbeNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, len(registry))
	for i, p := range registry {
		names[i] = p.Name()
	}
	return names
}

// DefaultProbes lists the four paper benchmarks in the paper's order.
// The TLB extension probe is registered but not part of the default
// suite, matching the paper's Table I.
func DefaultProbes() []string {
	return []string{probeCacheSize, probeShared, probeMemory, probeComm}
}

// knownNamesLocked snapshots the registered probe names; the caller
// holds regMu.
func knownNamesLocked() []string {
	known := make([]string, len(registry))
	for i, p := range registry {
		known[i] = p.Name()
	}
	return known
}

// probeClosure expands names to the requested probes plus their
// transitive dependencies, in canonical order.
func probeClosure(names []string) ([]Probe, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	want := map[string]bool{}
	var expand func(name string) error
	expand = func(name string) error {
		if want[name] {
			return nil
		}
		i, ok := regIndex[name]
		if !ok {
			return &UnknownProbeError{Name: name, Known: knownNamesLocked()}
		}
		want[name] = true
		for _, d := range registry[i].Deps() {
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
	idx := make([]int, 0, len(want))
	for name := range want {
		idx = append(idx, regIndex[name])
	}
	sort.Ints(idx)
	probes := make([]Probe, len(idx))
	for i, k := range idx {
		probes[i] = registry[k]
	}
	return probes, nil
}
