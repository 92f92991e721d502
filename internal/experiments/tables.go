package experiments

import (
	"context"
	"fmt"
	"time"

	"servet/internal/core"
	"servet/internal/report"
	"servet/internal/topology"
)

// sectionIVA reproduces the §IV-A evaluation: detect every cache on
// the four paper machines and compare against the specifications,
// the cache sizes of the machine models (10 caches in total, all
// expected to match).
func sectionIVA(ctx context.Context, o Opt) (*Result, error) {
	machines := []*topology.Machine{
		topology.Dunnington(), topology.FinisTerrae(1),
		topology.Dempsey(), topology.Athlon3200(),
	}
	var rows [][]string
	matches, total := 0, 0
	for _, m := range machines {
		det, _, err := core.DetectCaches(ctx, m, 0, calOptions(o))
		if err != nil {
			return nil, err
		}
		for i, c := range m.Caches {
			want := c.SizeBytes
			got := int64(0)
			method := "-"
			if i < len(det) {
				got = det[i].SizeBytes
				method = det[i].Method
			}
			ok := "MISMATCH"
			if got == want {
				ok = "match"
				matches++
			}
			total++
			rows = append(rows, []string{
				m.Name, fmt.Sprintf("L%d", i+1),
				report.HumanBytes(want), report.HumanBytes(got), method, ok,
			})
		}
	}
	res := &Result{
		Text: report.Table([]string{"machine", "level", "spec", "estimate", "method", "result"}, rows),
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d of %d cache sizes agree with the specifications", matches, total))
	return res, nil
}

// table1 reproduces Table I: the execution time of each benchmark on
// the two multicore clusters, in host wall time and simulated probe
// time.
func table1(ctx context.Context, o Opt) (*Result, error) {
	machines := []*topology.Machine{topology.Dunnington(), topology.FinisTerrae(2)}
	var rows [][]string
	res := &Result{}
	for _, m := range machines {
		opt := core.Options{Seed: o.seed()}
		if o.Quick {
			opt.CommReps = 2
			opt.BWSizes = []int64{4 * topology.KB, 64 * topology.KB}
		}
		suite, err := core.NewSuite(m, opt)
		if err != nil {
			return nil, err
		}
		r, err := suite.RunProbes(ctx)
		if err != nil {
			return nil, err
		}
		var total, totalSim time.Duration
		longest, longestStage := time.Duration(0), ""
		for _, tm := range r.Timings {
			rows = append(rows, []string{
				m.Name, tm.Stage,
				tm.Wall.Round(time.Millisecond).String(),
				tm.SimulatedProbe.Round(time.Millisecond).String(),
			})
			total += tm.Wall
			totalSim += tm.SimulatedProbe
			if tm.SimulatedProbe > longest {
				longest, longestStage = tm.SimulatedProbe, tm.Stage
			}
		}
		rows = append(rows, []string{m.Name, "total",
			total.Round(time.Millisecond).String(),
			totalSim.Round(time.Millisecond).String()})
		res.Notes = append(res.Notes, fmt.Sprintf("%s: longest simulated stage is %s (%v)",
			m.Name, longestStage, longest.Round(time.Millisecond)))
	}
	res.Text = report.Table([]string{"machine", "benchmark", "wall", "simulated"}, rows)
	return res, nil
}

// ablationStride shows why the probe stride is 1 KB: with a 256 B
// stride the hardware prefetcher hides the L1 transition.
func ablationStride(ctx context.Context, o Opt) (*Result, error) {
	m := topology.Dempsey()
	res := &Result{XLabel: "array bytes", YLabel: "cycles/access"}
	var rows [][]string
	for _, stride := range []int64{256, 512, 1024} {
		opt := calOptions(o)
		opt.StrideBytes = stride
		opt.MaxCacheBytes = 256 * topology.KB
		cal, err := core.McalibratorContext(ctx, m, 0, opt)
		if err != nil {
			return nil, err
		}
		s := Series{Name: fmt.Sprintf("stride %dB", stride)}
		for i := range cal.Sizes {
			s.X = append(s.X, float64(cal.Sizes[i]))
			s.Y = append(s.Y, cal.Cycles[i])
		}
		res.Series = append(res.Series, s)
		// Gradient at the true L1 boundary (16 KB).
		var grad float64
		for i := range cal.Sizes {
			if cal.Sizes[i] == 16*topology.KB && i+1 < len(cal.Cycles) {
				grad = cal.Cycles[i+1] / cal.Cycles[i]
			}
		}
		visible := "hidden by prefetcher"
		if grad > 2 {
			visible = "visible"
		}
		rows = append(rows, []string{fmt.Sprintf("%d B", stride), fmt.Sprintf("%.2f", grad), visible})
		res.Notes = append(res.Notes, fmt.Sprintf("stride %dB: L1 gradient %.2f (%s)", stride, grad, visible))
	}
	res.Text = report.Table([]string{"stride", "gradient at L1", "transition"}, rows)
	return res, nil
}

// ablationNaive compares the naive "read sizes off gradient peaks"
// baseline against the probabilistic estimator (§III-A: the naive rule
// reports 1 MB for Dempsey's 2 MB L2), with the machine models' cache
// sizes as the specifications.
func ablationNaive(ctx context.Context, o Opt) (*Result, error) {
	var rows [][]string
	res := &Result{}
	for _, m := range []*topology.Machine{topology.Dempsey(), topology.Dunnington()} {
		opt := calOptions(o)
		// Both estimators read the one calibration: the refinement
		// behind DetectCaches adds only to its ProbeCycles, and the
		// naive rule reads Sizes and Cycles.
		full, cal, err := core.DetectCaches(ctx, m, 0, opt)
		if err != nil {
			return nil, err
		}
		naive := core.NaiveCacheSizes(cal, opt)
		for i, c := range m.Caches {
			want := c.SizeBytes
			n, f := int64(0), int64(0)
			if i < len(naive) {
				n = naive[i].SizeBytes
			}
			if i < len(full) {
				f = full[i].SizeBytes
			}
			rows = append(rows, []string{
				m.Name, fmt.Sprintf("L%d", i+1), report.HumanBytes(want),
				report.HumanBytes(n), report.HumanBytes(f),
			})
			if i > 0 && n != want && f == want {
				res.Notes = append(res.Notes, fmt.Sprintf(
					"%s L%d: naive %s vs probabilistic %s (spec %s)",
					m.Name, i+1, report.HumanBytes(n), report.HumanBytes(f), report.HumanBytes(want)))
			}
		}
	}
	res.Text = report.Table([]string{"machine", "level", "spec", "naive", "probabilistic"}, rows)
	return res, nil
}
