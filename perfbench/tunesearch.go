package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"servet"
	"servet/internal/report"
	"servet/internal/tune"
)

// tuneProbes are the probes tune-search characterizes nehalem2s with:
// what the three objectives read (the tiled kernel needs only the
// machine name, the aggregation model the communication layers).
var tuneProbes = []string{"cache-size", "memory-overhead", "communication-costs"}

// search is one tune.Tune call of an application's tuning session.
type search struct {
	name  string
	space tune.Space
	obj   tune.Objective
	opt   tune.Options
}

// tuneSession is the three searches one tune-search operation runs,
// with search seeds derived from the benchmark seed. Every search runs
// at Parallelism 1.
func tuneSession(seed int64) ([]search, error) {
	specs := []struct {
		name     string
		space    tune.Space
		obj      tune.ObjectiveSpec
		strategy string
		budget   int
	}{
		{"tiled_kernel",
			tune.Space{Axes: []tune.Axis{tune.Pow2("tile", 4, 64)}},
			tune.ObjectiveSpec{Name: tune.ObjectiveTiledKernel, Params: json.RawMessage(`{"n":64}`)},
			tune.StrategyGrid, 0},
		{"bcast_sim",
			tune.Space{Axes: []tune.Axis{
				tune.Choice("algorithm", "flat", "binomial-tree"),
				tune.Choice("placement", "packed", "spread"),
			}},
			tune.ObjectiveSpec{Name: tune.ObjectiveBcastSim, Params: json.RawMessage(`{"ranks":8,"bytes":65536}`)},
			tune.StrategyGrid, 0},
		{"aggregation_model",
			tune.Space{Axes: []tune.Axis{tune.IntRange("batch", 1, 64, 1)}},
			tune.ObjectiveSpec{Name: tune.ObjectiveAggregationModel, Params: json.RawMessage(`{"bytes":256,"messages":64}`)},
			tune.StrategyAnneal, 32},
	}
	out := make([]search, len(specs))
	for i, s := range specs {
		obj, err := tune.NewObjective(s.obj)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out[i] = search{
			name:  s.name,
			space: s.space,
			obj:   obj,
			opt: tune.Options{
				Strategy:    s.strategy,
				Seed:        int64(splitmix(uint64(seed)+uint64(i))>>33) + 1,
				Budget:      s.budget,
				Parallelism: 1,
			},
		}
	}
	return out, nil
}

// characterizeForTune measures the report the searches tune against.
func characterizeForTune(ctx context.Context) (*report.Report, error) {
	s, err := servet.NewSession(servet.Nehalem2S(), servet.WithParallelism(suiteParallelism))
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, tuneProbes...)
}

// bestOf is the part of a tune result every operation must repeat.
type bestOf struct {
	best  tune.Config
	score float64
}

func (b bestOf) same(o bestOf) bool {
	return b.score == o.score && slices.Equal(b.best, o.best)
}

// tuneChecker holds the best configurations of a run's first
// operation; every later operation must find the same ones.
type tuneChecker struct{ first []bestOf }

func (c *tuneChecker) check(results []*tune.Result) error {
	got := make([]bestOf, len(results))
	for i, r := range results {
		got[i] = bestOf{r.Best, r.BestScore}
	}
	if c.first == nil {
		c.first = got
		return nil
	}
	for i := range got {
		if !got[i].same(c.first[i]) {
			return fmt.Errorf("search %d: best %v, want %v", i, got[i], c.first[i])
		}
	}
	return nil
}

// runSession runs the searches in order.
func runSession(ctx context.Context, rep *report.Report, ss []search) ([]*tune.Result, error) {
	out := make([]*tune.Result, len(ss))
	for i, s := range ss {
		res, err := tune.Tune(ctx, rep, s.space, s.obj, s.opt)
		if err != nil {
			return nil, fmt.Errorf("%s search: %w", s.name, err)
		}
		out[i] = res
	}
	return out, nil
}

// tuneWarmOps is how many sessions set-up runs before the window.
const tuneWarmOps = 5

func setupTuneSearch(seed int64) (opFunc, func() error, error) {
	ctx := context.Background()
	rep, err := characterizeForTune(ctx)
	if err != nil {
		return nil, nil, err
	}
	ss, err := tuneSession(seed)
	if err != nil {
		return nil, nil, err
	}
	var chk tuneChecker
	op := func() error {
		res, err := runSession(ctx, rep, ss)
		if err != nil {
			return err
		}
		return chk.check(res)
	}
	for i := 0; i < tuneWarmOps; i++ {
		if err := op(); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return op, nil, nil
}
