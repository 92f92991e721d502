// Command servet-experiments regenerates the tables and figures of the
// paper's evaluation (Section IV) on the simulated machines, printing
// each figure's data series (and an ASCII sketch) or table text.
//
// Usage:
//
//	servet-experiments -fig all
//	servet-experiments -fig fig10b -quick
//	servet-experiments -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"servet/internal/experiments"
	"servet/internal/report"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "experiment id or 'all'")
		seed     = flag.Int64("seed", 1, "seed for page placement")
		quick    = flag.Bool("quick", false, "fewer repetitions")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		plot     = flag.Bool("plot", true, "render ASCII sketches of figures")
		data     = flag.Bool("data", false, "print raw series points")
		parallel = flag.Int("parallel", 1, "experiments generated concurrently with -fig all")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-10s %s\n", id, experiments.Title(id))
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := experiments.Opt{Seed: *seed, Quick: *quick, Parallelism: *parallel}
	var results []*experiments.Result
	if *fig == "all" {
		all, err := experiments.RunAll(ctx, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servet-experiments: %v\n", err)
			os.Exit(1)
		}
		results = all
	} else {
		res, err := experiments.Run(ctx, *fig, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servet-experiments: %v\n", err)
			os.Exit(1)
		}
		results = []*experiments.Result{res}
	}

	for _, res := range results {
		fmt.Printf("=== %s — %s ===\n", res.ID, res.Title)
		if res.Text != "" {
			fmt.Print(res.Text)
		}
		for _, s := range res.Series {
			if *plot {
				fmt.Print(report.Chart(
					fmt.Sprintf("%s [%s vs %s]", s.Name, res.YLabel, res.XLabel),
					s.X, s.Y, 60, 10))
			}
			if *data {
				var sb strings.Builder
				fmt.Fprintf(&sb, "%s:", s.Name)
				for i := range s.X {
					fmt.Fprintf(&sb, " (%g, %g)", s.X[i], s.Y[i])
				}
				fmt.Println(sb.String())
			}
		}
		for _, n := range res.Notes {
			fmt.Printf("note: %s\n", n)
		}
		fmt.Println()
	}
}
