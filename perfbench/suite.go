package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"servet"
)

// suiteParallelism is the suite-cold session's worker count. One
// worker leaves the reference host's second vCPU to the garbage
// collector and the rest of the process, so wall time per operation
// follows the work done rather than whether both shared vCPUs are free
// at once: at parallelism 2 the median spread 0.14–0.29 between runs
// of the same code, at parallelism 1 about as little as CPU time. The
// fan-out itself is measured by the traced run (sched.* metrics).
const suiteParallelism = 1

// splitmix is one SplitMix64 step: a fixed bijective scramble, so
// neighbouring benchmark seeds give unrelated derived seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// suiteColdOp runs one cold install-time characterization: a new
// session with an empty in-memory cache, running the default four
// probes at full fidelity under the engine's default page-placement
// seed. (Under about one placement seed in five the cache-size probe
// misreports the L2; README.md explains why the seed is not drawn from
// the benchmark seed and where that defect is measured instead.)
func suiteColdOp(ctx context.Context) (*servet.Report, error) {
	s, err := servet.NewSession(servet.Nehalem2S(),
		servet.WithParallelism(suiteParallelism),
		servet.WithCache(servet.NewMemoryCache()))
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}

// wantNehalem2S is the cache hierarchy every suite-cold report must
// show: private 32 KB L1 and 256 KB L2, and an 8 MB L3 shared per
// socket.
var wantNehalem2S = []servet.CacheResult{
	{Level: 1, SizeBytes: 32 << 10},
	{Level: 2, SizeBytes: 256 << 10},
	{Level: 3, SizeBytes: 8 << 20, SharedGroups: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}},
}

// checkHierarchy fails unless the report's cache levels, sizes and
// sharing groups are exactly wantNehalem2S.
func checkHierarchy(r *servet.Report) error {
	if len(r.Caches) != len(wantNehalem2S) {
		return fmt.Errorf("detected %d cache levels, want %d", len(r.Caches), len(wantNehalem2S))
	}
	for i, want := range wantNehalem2S {
		got := r.Caches[i]
		if got.Level != want.Level || got.SizeBytes != want.SizeBytes ||
			len(got.SharedGroups) != len(want.SharedGroups) ||
			(len(want.SharedGroups) > 0 && !reflect.DeepEqual(got.SharedGroups, want.SharedGroups)) {
			return fmt.Errorf("cache level %d: got %d B shared %v, want L%d %d B shared %v",
				i+1, got.SizeBytes, got.SharedGroups, want.Level, want.SizeBytes, want.SharedGroups)
		}
	}
	return nil
}

// canonicalReport encodes the report with every wall-clock field
// zeroed (stage and provenance wall times, provenance timestamps), so
// two runs of a deterministic suite encode byte-identically.
func canonicalReport(r *servet.Report) ([]byte, error) {
	cp := *r
	cp.Timings = append([]servet.StageTiming(nil), r.Timings...)
	for i := range cp.Timings {
		cp.Timings[i].Wall = 0
	}
	cp.Provenance = append([]servet.ProbeProvenance(nil), r.Provenance...)
	for i := range cp.Provenance {
		cp.Provenance[i].Wall = 0
		cp.Provenance[i].Timestamp = time.Time{}
	}
	return json.Marshal(&cp)
}

// suiteChecker holds the canonical report of the first operation of a
// run; every later report must match it byte for byte.
type suiteChecker struct{ first []byte }

func (c *suiteChecker) check(r *servet.Report) error {
	if err := checkHierarchy(r); err != nil {
		return err
	}
	b, err := canonicalReport(r)
	if err != nil {
		return err
	}
	if c.first == nil {
		c.first = b
		return nil
	}
	if !bytes.Equal(b, c.first) {
		return fmt.Errorf("report differs from the run's first report")
	}
	return nil
}

// setupSuiteCold warms the engine with one operation, which also
// fixes the reference report the window's reports are checked
// against. The benchmark seed does not enter the operation.
func setupSuiteCold(int64) (opFunc, func() error, error) {
	ctx := context.Background()
	var chk suiteChecker
	op := func() error {
		r, err := suiteColdOp(ctx)
		if err != nil {
			return err
		}
		return chk.check(r)
	}
	if err := op(); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return op, nil, nil
}
