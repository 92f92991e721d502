package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"servet/internal/report"
)

// Probe-result caching plumbing: per-probe option digests decide
// whether a saved section is still valid, and a restored section keeps
// its saved Table I row, so a cached probe never has to execute.

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

// cachedTiming returns the Table I row of a section restored or
// carried from the cached report: the saved simulated probe time, and
// zero wall time because nothing executed.
func cachedTiming(cached *report.Report, name string) report.StageTiming {
	row := report.StageTiming{Stage: name}
	for _, tm := range cached.Timings {
		if tm.Stage == name {
			row.SimulatedProbe = tm.SimulatedProbe
		}
	}
	return row
}
