// Quickstart: open a session on the Dunnington model, run the whole
// Servet suite against an install-time cache file, print the detected
// hardware parameters, and show that a second session restores every
// probe from the file instead of re-measuring.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"servet"
)

func main() {
	m := servet.Dunnington()
	fmt.Printf("probing %s (%d cores at %.2f GHz)...\n\n", m.Name, m.TotalCores(), m.ClockGHz)

	// The paper stores the results in a file written once at install
	// time; applications load it to guide optimizations. With a
	// session the same file is also an incremental probe cache.
	dir, err := os.MkdirTemp("", "servet-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "servet.json")

	ctx := context.Background()
	ses, err := servet.NewSession(m,
		servet.WithSeed(1),
		// Trim the slowest sweeps a little for a snappy demo; drop
		// WithQuick for full-fidelity runs.
		servet.WithQuick(),
		servet.WithCache(servet.NewFileCache(path)),
	)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := ses.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary())

	// A later session (say, after a reboot) consults the file and
	// re-measures nothing: every probe's provenance says "cached".
	again, err := servet.NewSession(m,
		servet.WithSeed(1), servet.WithQuick(), servet.WithCache(servet.NewFileCache(path)))
	if err != nil {
		log.Fatal(err)
	}
	rerun, err := again.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nre-run against %s:\n", filepath.Base(path))
	for _, p := range rerun.Provenance {
		fmt.Printf("  %-20s %s\n", p.Probe, p.Status)
	}

	back, err := servet.LoadReport(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreport round-tripped: machine %s (fingerprint %s), %d cache levels, %d comm layers\n",
		back.Machine, back.Fingerprint, len(back.Caches), len(back.Comm.Layers))

	// Autotuning consumers (Section V of the paper) read the report.
	tile, err := servet.TileSize(back, 1, 8, 3, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tile size from L1 for a 3-array stencil: %dx%d float64s\n", tile, tile)
}
