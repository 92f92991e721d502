package main

import (
	"strings"
	"testing"
)

func TestParseBenchBestOfCount(t *testing.T) {
	in := `goos: linux
goarch: amd64
cpu: test
BenchmarkFoo-8   10   200.0 ns/op   512 B/op   4 allocs/op
BenchmarkFoo-8   10   100.0 ns/op   256 B/op   2 allocs/op
BenchmarkFoo-8   10   300.0 ns/op   768 B/op   6 allocs/op
`
	doc, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	res, ok := doc.Benchmarks["BenchmarkFoo"]
	if !ok {
		t.Fatalf("BenchmarkFoo missing: %+v", doc.Benchmarks)
	}
	if res.NsPerOp != 100 || res.BPerOp != 256 || res.AllocsPerOp != 2 || res.Runs != 3 {
		t.Errorf("best-of-count = %+v, want 100 ns, 256 B, 2 allocs over 3 runs", res)
	}
	if doc.GOMAXPROCS != 8 {
		t.Errorf("GOMAXPROCS = %d, want 8 from the -8 name suffix", doc.GOMAXPROCS)
	}
}

func TestMemRegressionsGate(t *testing.T) {
	base := map[string]Result{
		"BenchmarkStable":  {NsPerOp: 1, BPerOp: 1 << 20, AllocsPerOp: 1000},
		"BenchmarkWorseB":  {NsPerOp: 1, BPerOp: 1 << 20, AllocsPerOp: 1000},
		"BenchmarkWorseN":  {NsPerOp: 1, BPerOp: 1 << 20, AllocsPerOp: 1000},
		"BenchmarkZero":    {NsPerOp: 1, BPerOp: 0, AllocsPerOp: 0},
		"BenchmarkRetired": {NsPerOp: 1, BPerOp: 64, AllocsPerOp: 1},
	}
	cur := map[string]Result{
		// Within 10% + slack: passes.
		"BenchmarkStable": {NsPerOp: 9, BPerOp: 1 << 20, AllocsPerOp: 1050},
		// 2x the baseline bytes: fails.
		"BenchmarkWorseB": {NsPerOp: 1, BPerOp: 2 << 20, AllocsPerOp: 1000},
		// 2x the baseline allocs: fails.
		"BenchmarkWorseN": {NsPerOp: 1, BPerOp: 1 << 20, AllocsPerOp: 2000},
		// Zero baseline + a few objects of jitter: absorbed by slack.
		"BenchmarkZero": {NsPerOp: 1, BPerOp: 128, AllocsPerOp: 2},
		// New benchmark with no baseline: ignored.
		"BenchmarkNew": {NsPerOp: 1, BPerOp: 1 << 30, AllocsPerOp: 1 << 20},
	}
	regs := memRegressions(cur, base, 0.10)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2:\n%s", len(regs), strings.Join(regs, "\n"))
	}
	if !strings.Contains(regs[0], "BenchmarkWorseB") || !strings.Contains(regs[0], "b_per_op") {
		t.Errorf("first regression = %q, want BenchmarkWorseB b_per_op", regs[0])
	}
	if !strings.Contains(regs[1], "BenchmarkWorseN") || !strings.Contains(regs[1], "allocs_per_op") {
		t.Errorf("second regression = %q, want BenchmarkWorseN allocs_per_op", regs[1])
	}
}

func TestMemRegressionsNoBaselineOverlap(t *testing.T) {
	if regs := memRegressions(map[string]Result{"BenchmarkA": {BPerOp: 1 << 30}}, map[string]Result{}, 0.10); regs != nil {
		t.Errorf("regressions without baseline overlap: %v", regs)
	}
}
