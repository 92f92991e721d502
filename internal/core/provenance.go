package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"servet/internal/report"
)

// Probe-result caching plumbing: per-probe option digests decide
// whether a saved section is still valid, and restore rebuilds a
// probe's Partial from a previously saved report, so a cached probe
// never has to execute.

// digest returns the digest of the effective option fields p's
// measurements depend on (its scope).
func (s *Suite) digest(p Probe) (string, error) {
	data, err := json.Marshal(struct {
		Probe string
		Scope any
	}{p.Name(), p.scope(s.opt)})
	if err != nil {
		return "", fmt.Errorf("core: digest %s: %w", p.Name(), err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// restore rebuilds p's Partial from a saved report. ok is false when
// the report lacks p's section; the caller then executes the probe
// normally. The Partial's SimulatedProbe is recovered from the
// report's timing row, so restored runs keep their Table I entries.
func restore(p Probe, r *report.Report) (Partial, bool) {
	part, ok := p.restore(r)
	if !ok {
		return Partial{}, false
	}
	for _, tm := range r.Timings {
		if tm.Stage == p.Name() {
			part.SimulatedProbe = tm.SimulatedProbe
		}
	}
	return part, true
}
