// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured shape comparisons). Each
// benchmark runs the corresponding experiment generator end to end on
// the simulated machines and reports, where meaningful, the headline
// shape metric of the artifact as a custom benchmark metric.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package servet_test

import (
	"context"
	"strings"
	"testing"

	"servet"
	"servet/internal/experiments"
)

// benchOpt is the full-fidelity configuration (the quick variant is
// exercised by the unit tests).
var benchOpt = experiments.Opt{Seed: 1}

// runExperiment executes one experiment per benchmark iteration and
// returns the last result for metric extraction.
func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(context.Background(), id, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// lastY returns the final value of the named series.
func lastY(b *testing.B, res *experiments.Result, series string) float64 {
	b.Helper()
	for _, s := range res.Series {
		if s.Name == series {
			return s.Y[len(s.Y)-1]
		}
	}
	b.Fatalf("series %q not in %s", series, res.ID)
	return 0
}

func BenchmarkFigure2aMcalibratorCycles(b *testing.B) {
	res := runExperiment(b, "fig2a")
	if len(res.Series) != 2 {
		b.Fatalf("series = %d", len(res.Series))
	}
}

func BenchmarkFigure2bGradient(b *testing.B) {
	res := runExperiment(b, "fig2b")
	// Shape metric: the first-peak positions (16 KB / 32 KB).
	for _, s := range res.Series {
		for i, g := range s.Y {
			if g > 2 {
				b.ReportMetric(s.X[i]/1024, s.Name+"_L1_peak_KB")
				break
			}
		}
	}
}

func BenchmarkSectionIVACacheSizes(b *testing.B) {
	res := runExperiment(b, "iva")
	if strings.Contains(res.Text, "MISMATCH") {
		b.Fatalf("cache size mismatch:\n%s", res.Text)
	}
	b.ReportMetric(10, "matching_caches")
}

func BenchmarkFigure8aSharedCacheDunnington(b *testing.B) {
	res := runExperiment(b, "fig8a")
	// Shape metric: pairs with core 0 flagged at L2 (want 1: core 12).
	flagged := 0.0
	for _, s := range res.Series {
		if s.Name != "L2" {
			continue
		}
		for _, y := range s.Y {
			if y > 2 {
				flagged++
			}
		}
	}
	b.ReportMetric(flagged, "L2_shared_partners")
}

func BenchmarkFigure8bSharedCacheFinisTerrae(b *testing.B) {
	res := runExperiment(b, "fig8b")
	max := 0.0
	for _, s := range res.Series {
		for _, y := range s.Y {
			if y > max {
				max = y
			}
		}
	}
	b.ReportMetric(max, "max_ratio") // the paper: all below 2
}

func BenchmarkFigure9aMemOverheadPairs(b *testing.B) {
	res := runExperiment(b, "fig9a")
	// Shape metric: Finis Terrae bus-pair bandwidth (partner core 1).
	for _, s := range res.Series {
		if s.Name == "finisterrae" {
			b.ReportMetric(s.Y[0], "ft_bus_pair_GBs")
		}
	}
}

func BenchmarkFigure9bMemScalability(b *testing.B) {
	res := runExperiment(b, "fig9b")
	b.ReportMetric(lastY(b, res, "finisterrae bus"), "ft_bus_at_4cores_GBs")
}

func BenchmarkFigure10aCommLatency(b *testing.B) {
	res := runExperiment(b, "fig10a")
	// Shape metric: FT inter/intra latency ratio (paper: ~2x).
	for _, s := range res.Series {
		if s.Name != "finisterrae" {
			continue
		}
		intra, inter := s.Y[0], s.Y[len(s.Y)-1]
		b.ReportMetric(inter/intra, "ft_inter_over_intra")
	}
}

func BenchmarkFigure10bCommScalability(b *testing.B) {
	res := runExperiment(b, "fig10b")
	b.ReportMetric(lastY(b, res, "finisterrae network"), "ib_slowdown")
	b.ReportMetric(lastY(b, res, "dunnington inter-processor"), "fsb_slowdown")
}

func BenchmarkFigure10cBandwidthDunnington(b *testing.B) {
	res := runExperiment(b, "fig10c")
	if len(res.Series) != 3 {
		b.Fatalf("layers = %d, want 3", len(res.Series))
	}
}

func BenchmarkFigure10dBandwidthFinisTerrae(b *testing.B) {
	res := runExperiment(b, "fig10d")
	if len(res.Series) != 2 {
		b.Fatalf("layers = %d, want 2", len(res.Series))
	}
}

func BenchmarkTableIExecutionTimes(b *testing.B) {
	res := runExperiment(b, "table1")
	if !strings.Contains(res.Text, "total") {
		b.Fatal("table missing totals")
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationStride(b *testing.B) {
	res := runExperiment(b, "ablation1")
	if !strings.Contains(res.Text, "visible") {
		b.Fatalf("stride ablation:\n%s", res.Text)
	}
}

func BenchmarkAblationNaiveVsProbabilistic(b *testing.B) {
	res := runExperiment(b, "ablation2")
	b.ReportMetric(float64(len(res.Notes)), "naive_failures_fixed")
}

// Engine benchmarks: the full suite through the probe pipeline,
// sequential (the paper's stage order) vs concurrently scheduled, on
// the two multicore clusters of the evaluation. These are the
// baseline numbers future engine/perf PRs compare against.

func benchSuite(b *testing.B, m *servet.Machine, parallelism int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s, err := servet.NewSession(m, servet.WithSeed(1), servet.WithParallelism(parallelism))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Timings) != 4 {
			b.Fatalf("timings = %+v", rep.Timings)
		}
	}
}

func BenchmarkSuiteSequentialDunnington(b *testing.B) {
	benchSuite(b, servet.Dunnington(), 1)
}

// Cache benchmarks: the full suite cold (every probe measured by a
// fresh session) vs warm (every probe restored from a primed session
// cache). The warm run is the install-time-file re-read the paper's
// design implies — it should beat the cold run by well over the 5x
// acceptance bound.

func BenchmarkSuiteColdCacheDunnington(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := servet.NewSession(servet.Dunnington(), servet.WithCache(servet.NewMemoryCache()))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Timings) != 4 {
			b.Fatalf("timings = %+v", rep.Timings)
		}
	}
}

func BenchmarkSuiteWarmCacheDunnington(b *testing.B) {
	s, err := servet.NewSession(servet.Dunnington(), servet.WithCache(servet.NewMemoryCache()))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if p := rep.ProvenanceFor("communication-costs"); p == nil || p.Status != servet.ProvenanceCached {
			b.Fatal("warm run re-measured the suite")
		}
	}
}

func BenchmarkSuiteParallelDunnington(b *testing.B) {
	benchSuite(b, servet.Dunnington(), 4)
}

func BenchmarkSuiteSequentialFinisTerrae(b *testing.B) {
	benchSuite(b, servet.FinisTerrae(2), 1)
}

func BenchmarkSuiteParallelFinisTerrae(b *testing.B) {
	benchSuite(b, servet.FinisTerrae(2), 4)
}
