package servet

import (
	"context"
	"fmt"

	"servet/internal/sched"
)

// SweepError reports the failure of one machine's session inside a
// Sweep; Unwrap yields the session's own error (e.g. a *ProbeError).
type SweepError struct {
	// Machine is the failing machine's model name.
	Machine string
	// Err is the session's error.
	Err error
}

func (e *SweepError) Error() string { return fmt.Sprintf("sweep %s: %v", e.Machine, e.Err) }
func (e *SweepError) Unwrap() error { return e.Err }

// Sweep runs one session per machine and returns their reports in
// machine order — the cluster-wide aggregate the install-time files
// of a heterogeneous cluster are built from. Sessions fan out like
// the suite's measurement sweeps: WithParallelism bounds how
// many machines are probed concurrently, defaulting to all of them
// (inside each session the sweeps stay sequential unless the option
// says otherwise).
//
// The options apply to every session, so WithCache shares one cache
// instance across the sweep — safe for the fingerprint-keyed caches:
// WithCache(NewDirCache(dir)) gives every machine its own
// per-fingerprint file in one directory (the install-time layout of a
// heterogeneous cluster, servable as-is by cmd/servet-server), and
// WithCache(NewMemoryCache()) or WithCache(rc) with rc from
// NewRemoteCache key entries by fingerprint too. Do not share
// WithCache(NewFileCache(path)) unless all machines are the same
// model: a FileCache holds a single machine's report, and a session
// that would replace another machine's file fails with a
// *FingerprintMismatchError instead of clobbering it (the FileCache's
// lock makes that check and the write one step for the whole sweep).
//
// A failing session stops the machines after it, and the error is a
// *SweepError naming the first failing machine.
func Sweep(ctx context.Context, machines []*Machine, opts ...Option) ([]*Report, error) {
	if len(machines) == 0 {
		return nil, nil
	}

	// The sweep's fan-out width comes from the raw (not default-filled)
	// options: an unset parallelism means "all machines at once" here,
	// while inside each session it keeps meaning "sequential sweeps".
	var cfg sessionConfig
	cfg.apply(opts)
	fanout := cfg.opt.Parallelism
	if fanout < 1 {
		fanout = len(machines)
	}

	sessions := make([]*Session, len(machines))
	for i, m := range machines {
		s, err := NewSession(m, opts...)
		if err != nil {
			return nil, &SweepError{Machine: m.Name, Err: err}
		}
		sessions[i] = s
	}

	return sched.Sweep(ctx, "machines", len(machines), fanout, nil, func(_ struct{}, i int) (*Report, error) {
		rep, err := sessions[i].Run(ctx)
		if err != nil {
			return nil, &SweepError{Machine: machines[i].Name, Err: err}
		}
		return rep, nil
	})
}
