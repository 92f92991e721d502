// Command servet runs the benchmark suite on a simulated machine
// model and writes the install-time parameter report the paper
// describes (Section IV-E): a JSON file applications consult to guide
// their optimizations.
//
// With -cache the report file doubles as an incremental probe cache:
// re-runs restore every probe whose options (and machine) are
// unchanged and execute only the stale ones. With -cache-url the
// cache is a cluster-shared probe registry (cmd/servet-server)
// instead: nodes with the same hardware fingerprint measure once.
// The two are mutually exclusive.
//
// Usage:
//
//	servet -machine dunnington -out servet.json
//	servet -machine dunnington -cache servet.json   # incremental re-runs
//	servet -machine dunnington -cache-url http://head-node:8077
//	servet -machine finisterrae -nodes 2 -seed 3 -noise 0.01
//	servet -machine dunnington -probes cache-size,tlb -parallel 4
//	servet -machine dunnington -trace trace.json -trace-summary
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"servet"
	"servet/internal/obs"
)

func main() {
	var (
		machine    = flag.String("machine", "dunnington", "machine model (see -list)")
		nodes      = flag.Int("nodes", 2, "cluster nodes for multi-node models")
		out        = flag.String("out", "", "write the JSON report to this path")
		cachePath  = flag.String("cache", "", "incremental cache file: restore fresh probes from it and store the merged report back")
		cacheURL   = flag.String("cache-url", "", "probe-registry URL (servet-server): restore fresh probes from the cluster-shared cache and publish the merged report back")
		seed       = flag.Int64("seed", 1, "seed for page placement and noise")
		noise      = flag.Float64("noise", 0, "relative measurement noise (e.g. 0.02)")
		quick      = flag.Bool("quick", false, "fewer repetitions (faster, less precise)")
		list       = flag.Bool("list", false, "list machine models and exit")
		probes     = flag.String("probes", "", "comma-separated probe subset (default: full suite; see -list-probes)")
		parallel   = flag.Int("parallel", 1, "worker count for the sweeps inside each probe (reports are identical at any value)")
		listProbes = flag.Bool("list-probes", false, "list probe names and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path (pprof format)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this path on exit (pprof format)")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this path (open in Perfetto or chrome://tracing)")
		traceSum   = flag.Bool("trace-summary", false, "print a per-span/per-counter summary of the run (implies tracing)")
	)
	flag.Parse()

	// Profiles must flush on every exit path, including error exits, so
	// all os.Exit calls below go through exit().
	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	if *listProbes {
		fmt.Println(strings.Join(servet.ProbeNames(), "\n"))
		return
	}

	models := servet.Models(*nodes)
	if *list {
		names := make([]string, 0, len(models))
		for name := range models {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}
	m, ok := models[*machine]
	if !ok {
		fmt.Fprintf(os.Stderr, "servet: unknown machine %q (try -list)\n", *machine)
		exit(2)
	}

	opts := []servet.Option{
		servet.WithSeed(*seed),
		servet.WithNoise(*noise),
		servet.WithParallelism(*parallel),
	}
	if *quick {
		opts = append(opts, servet.WithQuick())
	}
	if *cachePath != "" && *cacheURL != "" {
		fmt.Fprintln(os.Stderr, "servet: -cache and -cache-url are mutually exclusive: pick the local file or the registry, not both")
		exit(2)
	}
	if *cachePath != "" {
		opts = append(opts, servet.WithCache(servet.NewFileCache(*cachePath)))
	}
	// The RemoteCache is kept so the final status line can tell
	// whether the publish actually reached the registry (Store swallows
	// network errors by design).
	var remote *servet.RemoteCache
	if *cacheURL != "" {
		rc, err := servet.NewRemoteCache(*cacheURL)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servet: %v\n", err)
			exit(2)
		}
		remote = rc
		opts = append(opts, servet.WithCache(rc))
	}

	var names []string
	if *probes != "" {
		for _, name := range strings.Split(*probes, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}

	ses, err := servet.NewSession(m, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servet: %v\n", err)
		exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Tracing observes the run without perturbing it: reports are
	// byte-identical with tracing on or off (a nil tracer means every
	// recording call below the session is a no-op).
	var tracer *obs.Tracer
	if *traceOut != "" || *traceSum {
		tracer = obs.New()
		ctx = obs.WithTracer(ctx, tracer)
	}
	rep, err := ses.Run(ctx, names...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servet: %v\n", err)
		exit(1)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "servet: -trace: %v\n", err)
			exit(1)
		}
	}
	fmt.Print(rep.Summary())
	if *traceSum {
		fmt.Println("\nTrace summary:")
		fmt.Print(tracer.Summary())
	}
	if len(rep.Provenance) > 0 {
		// Per-probe wall-clock costs from the provenance records: a
		// "cached" row reports the cost of the run that measured it, so
		// users can see what a restore saved — and which probes the
		// sharded sweeps (-parallel) actually sped up.
		fmt.Println("\nProbe wall-clock durations:")
		for _, p := range rep.Provenance {
			fmt.Printf("  %-22s %12s  (%s)\n", p.Probe, p.Wall.Round(time.Microsecond), p.Status)
		}
	}
	if *cachePath != "" {
		fmt.Printf("\ncache file %s updated (machine fingerprint %s)\n", *cachePath, ses.Fingerprint())
	}
	if remote != nil {
		if remote.SkippedStores() > 0 {
			fmt.Fprintf(os.Stderr, "\nservet: warning: registry %s unreachable — report measured locally but NOT published\n", *cacheURL)
		} else {
			fmt.Printf("\nregistry %s updated (machine fingerprint %s)\n", *cacheURL, ses.Fingerprint())
		}
	}
	if *out != "" {
		if err := rep.Save(*out); err != nil {
			fmt.Fprintf(os.Stderr, "servet: %v\n", err)
			exit(1)
		}
		fmt.Printf("\nreport written to %s\n", *out)
	}
	if *traceOut != "" {
		fmt.Printf("\ntrace written to %s\n", *traceOut)
	}
}

// writeTrace saves the tracer's spans as a Chrome trace-event file.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiles starts the requested pprof profiles and returns an
// idempotent stop function that flushes them: the CPU profile stops
// streaming and the heap profile is captured (after a GC, so it shows
// live bytes, not garbage).
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servet: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "servet: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuFile = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "servet: -memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "servet: -memprofile: %v\n", err)
			}
			f.Close()
		}
	}
}
