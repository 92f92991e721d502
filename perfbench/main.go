// Command perfbench is servet's end-to-end benchmark. It runs one of
// three closed-loop workloads — a single client goroutine in a single
// process — and prints, as the last line of its standard output, one
// JSON object with the run's correctness, operation counts and
// metrics:
//
//	perfbench --workload suite-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off;
// with --trace 1 it instead runs the traced per-layer measurements
// (see layers.go). README.md in this directory documents every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one closed-loop workload of the benchmark.
type workload struct {
	name string
	// setup builds the fixture and runs the warm-up operations.
	setup setupFunc
}

var workloads = []workload{
	{"suite-cold", setupSuiteCold},
	{"registry-mix", setupRegistryMix},
	{"tune-search", setupTuneSearch},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how many times a run builds its workload's fixture;
// setup_s is the median, and the last fixture is the one measured.
const setupReps = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: suite-cold, registry-mix or tune-search")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 25, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurements instead of the end-to-end window")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(w, *seed)
	} else {
		res, err = runEndToEnd(w, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printHost(w.name, *seed, *trace)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runEndToEnd sets the workload up setupReps times, then measures one
// closed-loop window with tracing off.
func runEndToEnd(w workload, seed int64, d time.Duration) (result, error) {
	var (
		op       opFunc
		finish   func() error
		setupSec []float64
	)
	for i := 0; i < setupReps; i++ {
		op, finish = nil, nil // let the previous fixture be collected
		runtime.GC()
		t0 := time.Now()
		var err error
		op, finish, err = w.setup(seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}
	win := measureWindow(op, d)
	if finish != nil {
		if err := finish(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: final check failed: %v\n", err)
			win.failed++
		}
	}
	return endToEndResult(win, setupSec), nil
}

// endToEndResult turns a window into the end-to-end metrics.
func endToEndResult(win window, setupSec []float64) result {
	n := len(win.lat)
	lat := durationsMS(win.lat)
	return result{
		Correct:   win.failed == 0,
		Attempted: n,
		Failed:    win.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setupSec), "s"},
			"latency_p50_ms":  {median(lat), "ms"},
			"cpu_ms_per_op":   {ms(win.cpu) / float64(n), "ms"},
			"alloc_mb_per_op": {mib(win.allocated) / float64(n), "MiB"},
			"peak_rss_mb":     {float64(win.peakRSS) / (1 << 20), "MiB"},
		},
	}
}
