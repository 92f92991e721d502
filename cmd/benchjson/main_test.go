package main

import (
	"strings"
	"testing"
)

// FuzzParseBench: on any text parseBench never panics, and each
// benchmark it reports is the best of the result lines it accepted for
// that name — parsed one line at a time, each as a document of its own:
// the minimum ns/op, with the B/op and allocs/op of a line that
// reported that minimum, and one run per accepted line.
func FuzzParseBench(f *testing.F) {
	f.Add("goos: linux\ncpu: test\nBenchmarkFoo-8   10   200.0 ns/op   512 B/op   4 allocs/op\nBenchmarkFoo-8   10   100.0 ns/op   256 B/op   2 allocs/op\n")
	f.Add("BenchmarkBar 5 3 ns/op\nBenchmarkBar-2 5 1 ns/op 7 MB/s 8 B/op\nBenchmarkBar 5 1 ns/op 9 B/op 1 allocs/op\n")
	f.Add("BenchmarkNaN 1 NaN ns/op\nBenchmarkNaN 1 5 ns/op\nBenchmarkInf 1 +Inf ns/op 1e300 B/op -4 allocs/op\n")
	f.Add("BenchmarkX-\nBenchmark 1 ns/op ns/op\n\r\nBenchmarkY-99999999999999999999 1 2 ns/op\n")
	f.Fuzz(func(t *testing.T, text string) {
		doc, err := parseBench(strings.NewReader(text))
		if err != nil {
			return // a line past the scanner's 1 MiB limit
		}
		runs := map[string][]Result{}
		for _, line := range strings.Split(text, "\n") {
			one, err := parseBench(strings.NewReader(line))
			if err != nil {
				t.Fatalf("line %q alone: %v", line, err)
			}
			for name, res := range one.Benchmarks {
				if res.Runs != 1 {
					t.Fatalf("line %q alone counted %d runs", line, res.Runs)
				}
				runs[name] = append(runs[name], res)
			}
		}
		if len(doc.Benchmarks) != len(runs) {
			t.Fatalf("parsed %d benchmarks, its lines %d", len(doc.Benchmarks), len(runs))
		}
		for name, got := range doc.Benchmarks {
			lines := runs[name]
			if got.Runs != len(lines) {
				t.Errorf("%s: %d runs, from %d lines", name, got.Runs, len(lines))
			}
			best := lines[0].NsPerOp
			for _, l := range lines {
				if !(l.NsPerOp > 0) || l.BPerOp < 0 || l.AllocsPerOp < 0 {
					t.Errorf("%s: accepted a line reporting %+v", name, l)
				}
				best = min(best, l.NsPerOp)
			}
			if got.NsPerOp != best {
				t.Errorf("%s: best-of-count %v ns/op, minimum parsed %v", name, got.NsPerOp, best)
			}
			found := false
			for _, l := range lines {
				found = found || l.NsPerOp == best && l.BPerOp == got.BPerOp && l.AllocsPerOp == got.AllocsPerOp
			}
			if !found {
				t.Errorf("%s: best %+v matches no line reporting %v ns/op", name, got, best)
			}
		}
	})
}

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
