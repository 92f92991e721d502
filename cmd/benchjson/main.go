// Command benchjson normalizes `go test -bench` output into the
// repo's BENCH_*.json perf-trajectory format: one entry per benchmark
// with ns/op, B/op and allocs/op (best of -count runs), the platform
// header with the host's CPU count and the GOMAXPROCS the benchmarks
// ran at, and — when a baseline is supplied — the baseline numbers and
// the ns/op speedup of current over baseline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 3 ./... | benchjson -issue 6 -o BENCH_6.json
//
// The -baseline flag accepts either a previous BENCH_*.json (its
// "benchmarks" section becomes the baseline) or raw `go test -bench`
// text.
//
// With -gate, memory regressions against the baseline fail the run:
// any benchmark present in both documents whose b_per_op or
// allocs_per_op exceeds the baseline by more than -gate-tol (plus a
// small absolute slack absorbing runtime jitter) exits non-zero after
// the output is written. Only the memory metrics are gated — they are
// deterministic per build, while ns/op is far too noisy on shared CI
// runners.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's normalized measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Runs        int     `json:"runs"`
}

// File is the BENCH_*.json document.
type File struct {
	Schema     string             `json:"schema"`
	Issue      int                `json:"issue,omitempty"`
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	NumCPU     int                `json:"num_cpu,omitempty"`    // host CPUs, to read Par rows against
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"` // the benchmarks' -P suffix
	Benchmarks map[string]Result  `json:"benchmarks"`
	Baseline   map[string]Result  `json:"baseline,omitempty"`
	Speedup    map[string]float64 `json:"speedup,omitempty"`
}

func main() {
	var (
		out      = flag.String("o", "", "output path (default stdout)")
		baseline = flag.String("baseline", "", "baseline: a prior BENCH_*.json or raw `go test -bench` text")
		issue    = flag.Int("issue", 0, "issue number recorded in the document")
		gate     = flag.Bool("gate", false, "with -baseline: fail on b/op or allocs/op regressions beyond -gate-tol")
		gateTol  = flag.Float64("gate-tol", 0.10, "relative headroom before a memory regression fails the gate")
	)
	flag.Parse()
	if *gate && *baseline == "" {
		fatal(fmt.Errorf("-gate requires -baseline"))
	}

	doc, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	doc.Schema = "servet-bench/v1"
	doc.Issue = *issue
	// benchjson reads the benchmarks through a pipe on the host that ran
	// them; the -P name suffix, when present, already gave GOMAXPROCS.
	doc.NumCPU = runtime.NumCPU()
	if doc.GOMAXPROCS == 0 {
		doc.GOMAXPROCS = runtime.GOMAXPROCS(0)
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark results on stdin"))
	}

	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
		doc.Baseline = base
		doc.Speedup = map[string]float64{}
		for name, cur := range doc.Benchmarks {
			if b, ok := base[name]; ok && cur.NsPerOp > 0 {
				doc.Speedup[name] = round3(b.NsPerOp / cur.NsPerOp)
			}
		}
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		printSummary(doc)
	}
	// Gate after writing: the document (with the regressed numbers) is
	// always produced for inspection, the exit code reports the verdict.
	if *gate {
		if regs := memRegressions(doc.Benchmarks, doc.Baseline, *gateTol); len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "benchjson: regression:", r)
			}
			os.Exit(1)
		}
	}
}

// Absolute slack the gate tolerates on top of the relative headroom,
// so near-zero baselines (0 allocs/op, a few bytes/op) do not fail on
// one-object runtime jitter.
const (
	gateSlackBytes  = 512
	gateSlackAllocs = 8
)

// memRegressions compares the memory metrics of every benchmark
// present in both documents and describes each one exceeding
// baseline*(1+tol) plus the absolute slack. Benchmarks only on one
// side are ignored: adding or retiring benchmarks is not a
// regression.
func memRegressions(cur, base map[string]Result, tol float64) []string {
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		b, ok := base[n]
		if !ok {
			continue
		}
		c := cur[n]
		if over(c.BPerOp, b.BPerOp, tol, gateSlackBytes) {
			out = append(out, fmt.Sprintf("%s: b_per_op %d exceeds baseline %d by more than %.0f%%", n, c.BPerOp, b.BPerOp, tol*100))
		}
		if over(c.AllocsPerOp, b.AllocsPerOp, tol, gateSlackAllocs) {
			out = append(out, fmt.Sprintf("%s: allocs_per_op %d exceeds baseline %d by more than %.0f%%", n, c.AllocsPerOp, b.AllocsPerOp, tol*100))
		}
	}
	return out
}

// over reports whether cur exceeds base by more than the relative
// tolerance plus the absolute slack.
func over(cur, base int64, tol float64, slack int64) bool {
	return cur > int64(float64(base)*(1+tol))+slack
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func round3(f float64) float64 {
	s, _ := strconv.ParseFloat(strconv.FormatFloat(f, 'f', 3, 64), 64)
	return s
}

// parseBench reads `go test -bench` text: goos/goarch/cpu headers and
// "BenchmarkName-P  N  ns/op [B/op allocs/op]" result lines. The -P
// suffix is GOMAXPROCS, recorded once and stripped from the names.
// Repeated runs of one benchmark (from -count) keep the fastest ns/op.
func parseBench(r io.Reader) (*File, error) {
	doc := &File{Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || f[2] != "ns/op" && !hasUnit(f, "ns/op") {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			// Strip the GOMAXPROCS suffix so names are stable across hosts.
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				doc.GOMAXPROCS = p
			}
		}
		res, ok := parseLine(f)
		if !ok {
			continue
		}
		if prev, seen := doc.Benchmarks[name]; seen {
			res.Runs = prev.Runs + 1
			if prev.NsPerOp < res.NsPerOp {
				res.NsPerOp, res.BPerOp, res.AllocsPerOp = prev.NsPerOp, prev.BPerOp, prev.AllocsPerOp
			}
		}
		doc.Benchmarks[name] = res
	}
	return doc, sc.Err()
}

func hasUnit(fields []string, unit string) bool {
	for _, f := range fields {
		if f == unit {
			return true
		}
	}
	return false
}

// parseLine extracts value/unit pairs from one result line's fields.
func parseLine(f []string) (Result, bool) {
	res := Result{Runs: 1, BPerOp: -1, AllocsPerOp: -1}
	for i := 2; i+1 < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		}
	}
	if res.NsPerOp == 0 {
		return res, false
	}
	if res.BPerOp < 0 {
		res.BPerOp = 0
	}
	if res.AllocsPerOp < 0 {
		res.AllocsPerOp = 0
	}
	return res, true
}

// loadBaseline reads the baseline measurements from a BENCH_*.json
// document (its "benchmarks" section) or raw bench text.
func loadBaseline(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		var doc File
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("baseline %s: %w", path, err)
		}
		if len(doc.Benchmarks) == 0 {
			return nil, fmt.Errorf("baseline %s: no benchmarks section", path)
		}
		return doc.Benchmarks, nil
	}
	doc, err := parseBench(strings.NewReader(string(data)))
	if err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("baseline %s: no benchmark lines", path)
	}
	return doc.Benchmarks, nil
}

// printSummary writes a human-readable speedup table to stderr.
func printSummary(doc *File) {
	names := make([]string, 0, len(doc.Benchmarks))
	for n := range doc.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cur := doc.Benchmarks[n]
		line := fmt.Sprintf("%-44s %14.1f ns/op %10d B/op %8d allocs/op",
			n, cur.NsPerOp, cur.BPerOp, cur.AllocsPerOp)
		if s, ok := doc.Speedup[n]; ok {
			line += fmt.Sprintf("   %6.2fx vs baseline", s)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
