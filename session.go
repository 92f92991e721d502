package servet

import (
	"context"
	"fmt"
	"sort"
	"time"

	"servet/internal/core"
	"servet/internal/obs"
	"servet/internal/report"
)

// Option configures a Session (and Sweep). Options are applied in
// order, so later ones win.
type Option func(*sessionConfig)

type sessionConfig struct {
	opt   core.Options
	cache Cache
}

func (c *sessionConfig) apply(opts []Option) {
	for _, o := range opts {
		o(c)
	}
}

// WithOptions replaces the whole suite-tuning struct. It composes
// with the targeted options below: apply it first, then override
// individual fields.
func WithOptions(opt Options) Option {
	return func(c *sessionConfig) { c.opt = opt }
}

// WithSeed sets the seed driving page placement and measurement
// noise (0 means the default, 1).
func WithSeed(seed int64) Option {
	return func(c *sessionConfig) { c.opt.Seed = seed }
}

// WithNoise adds relative Gaussian measurement noise (e.g. 0.02) to
// exercise the clustering tolerances.
func WithNoise(sigma float64) Option {
	return func(c *sessionConfig) { c.opt.NoiseSigma = sigma }
}

// WithParallelism bounds how many measurements each sched.Sweep runs
// concurrently: the sweeps inside every probe, CalibrateCores, and
// how many machines Sweep probes at once. The probes of one run still
// execute one after another in canonical order. Reports are
// byte-identical at any parallelism; only wall times change.
func WithParallelism(n int) Option {
	return func(c *sessionConfig) { c.opt.Parallelism = n }
}

// WithQuick trims the slowest sweeps (fewer ping-pong repetitions and
// allocations, three bandwidth points) for demos and smoke tests.
func WithQuick() Option {
	return func(c *sessionConfig) {
		c.opt.CommReps = 2
		c.opt.Allocations = 2
		c.opt.BWSizes = []int64{4 << 10, 64 << 10, 1 << 20}
	}
}

// WithCache attaches a probe-result cache: Session.Run consults it
// before executing probes and stores the merged report back into it.
// The cache decides where entries live: NewFileCache on the
// install-time JSON report (re-runs execute only probes whose options
// changed, or whose dependencies did), NewDirCache on a directory of
// per-fingerprint files, NewRemoteCache on a cmd/servet-server probe
// registry, or NewMemoryCache in process.
func WithCache(cache Cache) Option {
	return func(c *sessionConfig) { c.cache = cache }
}

// Session is the stateful entry point of the suite: it owns the
// validated machine, the effective options, the simulated-hardware
// instances the direct probes use, and an optional probe-result
// cache. A Session is safe for concurrent use: probes never mutate
// the machine, and the direct measurements (DetectCaches,
// CalibrateCores) build fresh simulator state per call.
type Session struct {
	suite       *core.Suite
	cache       Cache
	fingerprint string
}

// NewSession validates the machine and prepares a session. With no
// options the session runs the paper's defaults.
func NewSession(m *Machine, opts ...Option) (*Session, error) {
	var cfg sessionConfig
	cfg.apply(opts)
	suite, err := core.NewSuite(m, cfg.opt)
	if err != nil {
		return nil, err
	}
	return &Session{
		suite:       suite,
		cache:       cfg.cache,
		fingerprint: m.Fingerprint(),
	}, nil
}

// Machine returns the machine under test.
func (s *Session) Machine() *Machine { return s.suite.Machine() }

// Fingerprint returns the stable identity hash of the machine model —
// the key the session's cache entries live under.
func (s *Session) Fingerprint() string { return s.fingerprint }

// Options returns the effective (default-filled) options.
func (s *Session) Options() Options { return s.suite.Options() }

// Run executes the named probes plus their transitive dependencies
// (no names means the paper's four-benchmark suite) and returns the
// merged report, stamped with the schema version, the machine
// fingerprint and per-probe provenance.
//
// When the session has a cache, probes whose cached section is still
// fresh — same machine fingerprint, same options digest, and every
// dependency fresh too — are restored instead of executed; only stale
// probes (and their dependents) run, in the usual canonical order. The
// merged report is identical to a fresh run's, with provenance rows
// saying which sections were measured now ("ran") and which were
// reused ("cached", keeping their original measurement timestamp).
// The report is stored back into the cache before returning.
//
// A cached session's report accumulates: sections of probes outside
// the requested set are carried over from the cache entry when they
// are still consistent with this run, so a subset re-run narrows
// neither the report nor the install-time file.
func (s *Session) Run(ctx context.Context, probes ...string) (*Report, error) {
	// The run records into the context's tracer (nil when untraced):
	// one "session" span over the whole run plus cache spans and
	// restored-vs-ran counters. None of it feeds back into the report.
	tr := obs.FromContext(ctx)
	sp := tr.Start("session", "run")
	defer sp.End()

	closure, err := core.ProbeClosureNames(probes...)
	if err != nil {
		return nil, err
	}
	digests := make(map[string]string, len(closure))
	for _, name := range closure {
		d, err := s.suite.OptionsDigest(name)
		if err != nil {
			return nil, err
		}
		digests[name] = d
	}

	var cached *Report
	if s.cache != nil {
		lk := tr.Start("session", "cache-lookup")
		r, ok := s.cache.Lookup(s.fingerprint)
		lk.End()
		if ok {
			cached = r
			tr.Count(obs.CounterCacheHit, 1)
		} else {
			tr.Count(obs.CounterCacheMiss, 1)
		}
	}

	// Walk the closure in canonical (topological) order deciding, probe
	// by probe, whether the cached section is still fresh.
	fresh := make(map[string]bool, len(closure))
	seeded := make(map[string]core.Partial)
	for _, name := range closure {
		if cached == nil {
			break
		}
		prov := cached.ProvenanceFor(name)
		if prov == nil || prov.OptionsDigest != digests[name] {
			continue
		}
		deps, err := core.ProbeDeps(name)
		if err != nil {
			return nil, err
		}
		stale := false
		for _, d := range deps {
			if !fresh[d] {
				stale = true
				break
			}
		}
		if stale {
			continue
		}
		part, ok := core.Restore(name, cached)
		if !ok {
			continue
		}
		fresh[name] = true
		seeded[name] = part
	}

	rep, executed, err := s.suite.RunSeeded(ctx, seeded, closure...)
	if err != nil {
		return nil, err
	}
	tr.Count(obs.CounterProbesRestored, int64(len(seeded)))
	tr.Count(obs.CounterProbesRan, int64(len(executed)))

	rep.Schema = report.CurrentSchema
	rep.Fingerprint = s.fingerprint
	now := time.Now().UTC() //servet:wallclock — provenance timestamp, never a measurement input
	wall := make(map[string]time.Duration, len(rep.Timings))
	for _, tm := range rep.Timings {
		wall[tm.Stage] = tm.Wall
	}
	for _, name := range closure {
		prov := report.ProbeProvenance{Probe: name, OptionsDigest: digests[name]}
		if fresh[name] {
			// A restored section keeps the measurement time and cost of
			// the run that produced it.
			orig := cached.ProvenanceFor(name)
			prov.Status = report.ProvenanceCached
			prov.Timestamp = orig.Timestamp
			prov.Wall = orig.Wall
		} else {
			prov.Status = report.ProvenanceRan
			prov.Timestamp = now
			prov.Wall = wall[name]
		}
		rep.Provenance = append(rep.Provenance, prov)
	}

	// A subset run must not shrink the cache entry: cached sections of
	// probes outside the closure are carried into the merged report
	// (and hence the stored entry) as long as they are still consistent
	// with it, so the install-time file keeps accumulating instead of
	// being clobbered by e.g. a tlb-only re-run.
	if cached != nil {
		if err := s.carryLeftovers(rep, cached, closure, digests); err != nil {
			return nil, err
		}
	}

	if s.cache != nil {
		st := tr.Start("session", "cache-store")
		err := s.cache.Store(s.fingerprint, rep)
		st.End()
		if err != nil {
			return nil, fmt.Errorf("servet: cache store: %w", err)
		}
	}
	return rep, nil
}

// carryLeftovers merges into rep the cached sections of probes that
// were not part of this run's closure. A leftover is carried only
// when every dependency it was measured against is unchanged in the
// merged report: a dependency inside the closure must carry the same
// options digest as before (probes are deterministic, so an equal
// digest means an identical output whether it ran or was restored),
// and a dependency outside the closure must itself have been carried.
// Stale leftovers are dropped from the entry — their provenance rows
// disappear, so a later run re-measures them.
func (s *Session) carryLeftovers(rep, cached *Report, closure []string, digests map[string]string) error {
	inClosure := make(map[string]bool, len(closure))
	for _, name := range closure {
		inClosure[name] = true
	}
	carried := map[string]bool{}
	for _, name := range core.ProbeNames() { // canonical, hence topological
		if inClosure[name] {
			continue
		}
		prov := cached.ProvenanceFor(name)
		if prov == nil {
			continue
		}
		deps, err := core.ProbeDeps(name)
		if err != nil {
			return err
		}
		consistent := true
		for _, d := range deps {
			if inClosure[d] {
				dprov := cached.ProvenanceFor(d)
				consistent = dprov != nil && dprov.OptionsDigest == digests[d]
			} else {
				consistent = carried[d]
			}
			if !consistent {
				break
			}
		}
		if !consistent {
			continue
		}
		part, ok := core.Restore(name, cached)
		if !ok {
			continue
		}
		if part.Apply != nil {
			part.Apply(rep)
		}
		carried[name] = true
		rep.Timings = append(rep.Timings, report.StageTiming{
			Stage:          name,
			SimulatedProbe: part.SimulatedProbe,
		})
		rep.Provenance = append(rep.Provenance, report.ProbeProvenance{
			Probe:         name,
			Status:        report.ProvenanceCached,
			OptionsDigest: prov.OptionsDigest,
			Timestamp:     prov.Timestamp,
			Wall:          prov.Wall,
		})
	}
	if len(carried) > 0 {
		sortByCanonicalOrder(rep)
	}
	return nil
}

// sortByCanonicalOrder restores the canonical probe order of the
// timing and provenance rows after leftover sections were appended.
func sortByCanonicalOrder(rep *Report) {
	order := make(map[string]int)
	for i, name := range core.ProbeNames() {
		order[name] = i
	}
	sort.SliceStable(rep.Timings, func(i, j int) bool {
		return order[rep.Timings[i].Stage] < order[rep.Timings[j].Stage]
	})
	sort.SliceStable(rep.Provenance, func(i, j int) bool {
		return order[rep.Provenance[i].Probe] < order[rep.Provenance[j].Probe]
	})
}

// DetectCaches runs only the cache-size benchmark (mcalibrator plus
// the Fig. 4 detection driver, with adaptive window refinement) and
// returns the detected levels along with the raw calibration curve.
// Cancelling the context aborts the calibration or refinement sweep.
func (s *Session) DetectCaches(ctx context.Context) ([]DetectedCache, Calibration, error) {
	return s.suite.DetectCaches(ctx)
}

// CalibrateCores runs the raw calibration loop of Fig. 1 on each of
// the given node-local cores (no cores means every core of a node),
// fanned out over the session's parallelism, and returns sizes and
// cycles per access. Every core calibrates against its own fresh
// memory-system instance, so the calibrations are identical at any
// parallelism. Results come back in the order the cores were given.
func (s *Session) CalibrateCores(ctx context.Context, cores ...int) ([]Calibration, error) {
	return s.suite.CalibrateCores(ctx, cores...)
}
