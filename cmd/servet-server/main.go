// Command servet-server runs the probe-registry server: an HTTP
// service storing Servet reports keyed by machine fingerprint,
// serving them to autotuners across a cluster, and running the probe
// engine on demand for fingerprints it has no fresh results for.
// Identical concurrent run requests coalesce into one engine
// execution.
//
// Nodes connect with servet.WithCache over a servet.NewRemoteCache
// (or cmd/servet -cache-url), or speak the HTTP API directly:
//
//	GET  /v1/reports                          list stored reports
//	GET  /v1/reports/{fp}                     one machine's report
//	PUT  /v1/reports/{fp}                     publish a measured report
//	GET  /v1/reports/{fp}/probes/{probe}      one probe's section
//	POST /v1/run                              run stale probes on demand
//	POST /v1/tune                             search a parameter space server-side
//	GET  /v1/stats                            run + tune counters
//	GET  /metrics                             Prometheus text exposition
//	GET  /healthz                             liveness
//
// Usage:
//
//	servet-server -addr :8077 -store /var/lib/servet/reports
//	servet-server -addr :8077 -parallel 4      # in-memory store
//	servet-server -addr :8077 -access-log -debug-addr localhost:8078
//
// With -store the registry persists into a directory of
// per-fingerprint JSON files — the same layout servet.DirCache
// writes, so a sweep's cache directory can be served as-is and every
// stored entry doubles as an install-time parameter file. Without it,
// entries live in memory and vanish on restart.
//
// -access-log emits one structured JSON line per served request.
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ — a separate address, so profiling endpoints are
// never exposed on the registry port.
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight requests
// finish, in-flight probe runs are cancelled, and the final log line
// reports the uptime and counter totals of the process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"servet/internal/server"
)

// validateAddrs rejects a debug listener on the registry's own
// address: the point of -debug-addr is keeping pprof off the
// registry port, and binding both to one address would either fail
// late or silently shadow routes.
func validateAddrs(addr, debugAddr string) error {
	if debugAddr != "" && debugAddr == addr {
		return fmt.Errorf("-debug-addr %s is the registry address itself; pick a different port", debugAddr)
	}
	return nil
}

// Connection timeouts for both listeners. They bound how long a slow
// or stalled client can hold a connection: while sending its headers,
// while sending its whole request, and while idle between keep-alive
// requests. There is deliberately no write timeout: a cold /v1/run
// measures the machine before it answers, and a pprof profile streams
// for as long as it was asked to.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds a listener's http.Server with the connection
// timeouts set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// debugMux builds the pprof handler served on the debug listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr      = flag.String("addr", ":8077", "listen address")
		storeDir  = flag.String("store", "", "directory for per-fingerprint report files (empty: in-memory store)")
		parallel  = flag.Int("parallel", 1, "worker count for on-demand probe runs (reports are identical at any value)")
		accessLog = flag.Bool("access-log", false, "log one structured JSON line per served request")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this extra address (must differ from -addr)")
	)
	flag.Parse()

	if err := validateAddrs(*addr, *debugAddr); err != nil {
		fmt.Fprintf(os.Stderr, "servet-server: %v\n", err)
		os.Exit(2)
	}

	var store server.Store = server.NewMemStore()
	kind := "in-memory"
	if *storeDir != "" {
		store = server.NewDirStore(*storeDir)
		kind = fmt.Sprintf("directory %s", *storeDir)
	}

	// The base context cancels in-flight probe runs on shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	regOpts := []server.Option{
		server.WithParallelism(*parallel),
		server.WithBaseContext(ctx),
	}
	if *accessLog {
		regOpts = append(regOpts, server.WithAccessLog(slog.New(slog.NewJSONHandler(os.Stderr, nil))))
	}
	reg := server.New(store, regOpts...)
	srv := newHTTPServer(*addr, reg)

	started := time.Now()
	errc := make(chan error, 2)
	go func() {
		log.Printf("servet-server: listening on %s (%s store, parallelism %d)", *addr, kind, *parallel)
		errc <- srv.ListenAndServe()
	}()
	var dbg *http.Server
	if *debugAddr != "" {
		dbg = newHTTPServer(*debugAddr, debugMux())
		go func() {
			log.Printf("servet-server: pprof on http://%s/debug/pprof/", *debugAddr)
			errc <- dbg.ListenAndServe()
		}()
	}

	select {
	case err := <-errc:
		log.Fatalf("servet-server: %v", err)
	case <-ctx.Done():
	}

	log.Printf("servet-server: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("servet-server: shutdown: %v", err)
	}
	if dbg != nil {
		dbg.Shutdown(shutdownCtx)
	}
	st := reg.Stats()
	log.Printf("servet-server: served for %s: %d run sessions (%d coalesced, %d probes), %d tunes (%d coalesced, %d evaluations), store %d hits / %d misses",
		time.Since(started).Round(time.Second),
		st.RunSessions, st.RunsCoalesced, st.ProbesExecuted,
		st.TuneRequests, st.TunesCoalesced, st.TuneEvaluations,
		st.StoreHits, st.StoreMisses)
}
