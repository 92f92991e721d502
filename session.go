package servet

import (
	"context"
	"fmt"

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
// concurrently: the mcalibrator and shared-cache sweeps inside the
// probes (the memory-overhead and communication-costs sweeps always
// run sequentially), CalibrateCores, and how many machines Sweep
// probes at once. The probes of one run still
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
// validated machine, the effective options and an optional
// probe-result cache. A Session is safe for concurrent use: probes never mutate
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

	rep, prov, err := s.suite.Run(ctx, cached, probes...)
	if err != nil {
		return nil, err
	}
	rep.Schema = report.CurrentSchema
	rep.Fingerprint = s.fingerprint
	rep.Provenance = prov

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

// DetectCaches runs only the cache-size benchmark (mcalibrator plus
// the Fig. 4 detection driver, with adaptive window refinement) and
// returns the detected levels along with the raw calibration curve.
// Cancelling the context aborts the calibration or refinement sweep.
func (s *Session) DetectCaches(ctx context.Context) ([]DetectedCache, Calibration, error) {
	return core.DetectCaches(ctx, s.suite.Machine(), 0, s.suite.Options())
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
