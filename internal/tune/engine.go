package tune

import (
	"context"
	"fmt"
	"time"

	"servet/internal/obs"
	"servet/internal/report"
	"servet/internal/sched"
)

// ResultSchema is the version of the TuneResult format this package
// produces; consumers reject results from a future engine instead of
// misreading them.
const ResultSchema = 1

// Search defaults.
const (
	// DefaultBudget is the evaluation budget when Options leaves it 0.
	DefaultBudget = 64
	// DefaultSeed matches the probe engine's default seed.
	DefaultSeed = 1
)

// Options tunes the search itself.
type Options struct {
	// Strategy names the search strategy (see NewStrategy; "" means
	// auto).
	Strategy string
	// Seed drives every stochastic decision of the search (0 means
	// DefaultSeed). The result is a pure function of (report, space,
	// objective, strategy, seed, budget).
	Seed int64
	// Budget caps the number of objective evaluations (0 means
	// DefaultBudget).
	Budget int
	// Parallelism bounds how many evaluations run concurrently
	// (results are byte-identical at any value; only wall time
	// changes).
	Parallelism int
}

// withDefaults fills the zero fields.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.Budget <= 0 {
		o.Budget = DefaultBudget
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	return o
}

// TracePoint is one evaluated configuration of a tune, in evaluation
// order.
type TracePoint struct {
	// Round is the proposal round the point was evaluated in.
	Round int `json:"round"`
	// Config is the evaluated configuration (aligned with the
	// result's space axes).
	Config Config `json:"config"`
	// Score is the objective's value (lower is better).
	Score float64 `json:"score"`
}

// Provenance records where a tune result came from. Unlike the rest
// of the result it is not deterministic (wall-clock), so byte-level
// comparisons zero it first.
type Provenance struct {
	// Timestamp is when the tune ran.
	Timestamp time.Time `json:"timestamp"`
	// Wall is the host time the search took.
	Wall time.Duration `json:"wall_ns"`
}

// Result is the schema-versioned output of a tune: the best
// configuration found, its score, and the full evaluation trace.
// Everything except Provenance is a deterministic function of
// (report, space, objective, strategy, seed, budget) — byte-identical
// at any parallelism.
type Result struct {
	// Schema is ResultSchema.
	Schema int `json:"schema"`
	// Machine and Fingerprint identify the report tuned against.
	Machine     string `json:"machine"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Objective and Strategy name what was optimized and how.
	Objective string `json:"objective"`
	Strategy  string `json:"strategy"`
	// Seed and Budget echo the effective search options.
	Seed   int64 `json:"seed"`
	Budget int   `json:"budget"`
	// Space echoes the searched space, so Best and the trace configs
	// can be read by axis name.
	Space Space `json:"space"`
	// Best is the winning configuration, BestScore its score, and
	// BestRound the round it was found in.
	Best      Config  `json:"best"`
	BestScore float64 `json:"best_score"`
	BestRound int     `json:"best_round"`
	// Evaluations counts distinct configurations evaluated; Rounds
	// counts proposal rounds.
	Evaluations int `json:"evaluations"`
	Rounds      int `json:"rounds"`
	// Trace lists every evaluation in deterministic (round, proposal)
	// order.
	Trace []TracePoint `json:"trace"`
	// Provenance is the result's wall-clock record.
	Provenance Provenance `json:"provenance"`
}

// BestValue returns the winning value of the named axis.
func (r *Result) BestValue(name string) (Value, error) {
	i := r.Space.AxisIndex(name)
	if i < 0 || i >= len(r.Best) {
		return Value{}, fmt.Errorf("tune: result has no axis %q", name)
	}
	return r.Best[i], nil
}

// Summary renders the result in one line.
func (r *Result) Summary() string {
	return fmt.Sprintf("tune %s/%s on %s: best [%s] score %g (%d evaluations, %d rounds)",
		r.Objective, r.Strategy, r.Machine, r.Space.Describe(r.Best), r.BestScore, r.Evaluations, r.Rounds)
}

// maxBarrenRounds bounds how many consecutive rounds may propose only
// already-evaluated points before the engine ends the search — a
// termination guard against strategies that keep re-proposing.
const maxBarrenRounds = 8

// Tune searches the space for the configuration minimizing the
// objective against the report. Candidate batches are evaluated
// concurrently (Options.Parallelism) through sched.Sweep with results
// merged in proposal order, so the result — best point, score, and
// full trace — is byte-identical at any parallelism. Duplicate
// proposals are never re-evaluated: the budget counts distinct
// configurations.
//
// Cancelling the context aborts the search between evaluations; the
// error is the context's.
func Tune(ctx context.Context, r *report.Report, sp Space, obj Objective, opt Options) (*Result, error) {
	if r == nil {
		return nil, fmt.Errorf("tune: nil report")
	}
	if obj == nil {
		return nil, fmt.Errorf("tune: nil objective")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	strat, err := NewStrategy(opt.Strategy)
	if err != nil {
		return nil, err
	}

	// The search records into the context's tracer (nil when untraced):
	// one "tune" span over the whole search, one per proposal round, and
	// evaluation counters — none of which feed back into the search.
	tr := obs.FromContext(ctx)
	search := tr.Start("tune", "search:"+strat.Name())
	defer search.End()

	start := time.Now() //servet:wallclock — result provenance (Timestamp/Wall), never a search input
	hist := &History{
		Space:  &sp,
		Seed:   opt.Seed,
		Budget: opt.Budget,
		seen:   make(map[string]int),
	}

	barren := 0
	for hist.Remaining() > 0 && barren < maxBarrenRounds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch := strat.Next(hist)
		if len(batch) == 0 {
			break
		}
		// Filter duplicates (already evaluated, or repeated within the
		// batch) and clamp to the remaining budget, preserving proposal
		// order.
		fresh := batch[:0:len(batch)]
		inBatch := make(map[string]bool, len(batch))
		for _, p := range batch {
			if len(fresh) >= hist.Remaining() {
				break
			}
			if len(p) != len(sp.Axes) {
				return nil, fmt.Errorf("tune: strategy %s proposed a %d-axis point in a %d-axis space", strat.Name(), len(p), len(sp.Axes))
			}
			k := p.key()
			if inBatch[k] || hist.Seen(p) {
				continue
			}
			inBatch[k] = true
			fresh = append(fresh, p)
		}
		if len(fresh) == 0 {
			hist.Round++
			barren++
			continue
		}
		barren = 0

		round := tr.Start("tune", fmt.Sprintf("round:%d", hist.Round))
		scores, err := evalBatch(ctx, r, &sp, obj, fresh, opt.Parallelism)
		round.End()
		if err != nil {
			return nil, err
		}
		// Merge in proposal order: the trace (and hence the result) is
		// independent of which worker finished first.
		for i, p := range fresh {
			hist.seen[p.key()] = len(hist.Evals)
			hist.Evals = append(hist.Evals, Eval{
				Round:  hist.Round,
				Point:  p,
				Config: sp.Materialize(p),
				Score:  scores[i],
			})
		}
		hist.Round++
	}

	best, ok := hist.Best()
	if !ok {
		return nil, fmt.Errorf("tune: strategy %s proposed no points", strat.Name())
	}
	res := &Result{
		Schema:      ResultSchema,
		Machine:     r.Machine,
		Fingerprint: r.Fingerprint,
		Objective:   obj.Name(),
		Strategy:    strat.Name(),
		Seed:        opt.Seed,
		Budget:      opt.Budget,
		Space:       sp,
		Best:        best.Config,
		BestScore:   best.Score,
		BestRound:   best.Round,
		Evaluations: len(hist.Evals),
		Rounds:      hist.Round,
		Provenance: Provenance{
			Timestamp: start.UTC(),
			//servet:wallclock
			Wall: time.Since(start),
		},
	}
	res.Trace = make([]TracePoint, len(hist.Evals))
	for i, e := range hist.Evals {
		res.Trace[i] = TracePoint{Round: e.Round, Config: e.Config, Score: e.Score}
	}
	return res, nil
}

// evalBatch scores the batch's points through sched.Sweep, in
// proposal-ordered chunks merged back in order. Objectives
// implementing scratchEvaluator evaluate against one scratch per
// worker; scores are bit-identical either way, so the pooling never
// shows in the result.
func evalBatch(ctx context.Context, r *report.Report, sp *Space, obj Objective, pts []Point, parallelism int) ([]float64, error) {
	// Evaluation spans and counters record into the context's tracer
	// (nil when untraced).
	tr := obs.FromContext(ctx)
	ev := tr.Start("tune", "eval:"+obj.Name())
	defer ev.End()
	wrap := func(i int, err error) error {
		return fmt.Errorf("tune: objective %s on [%s]: %w", obj.Name(), sp.Describe(sp.Materialize(pts[i])), err)
	}
	se, pooled := obj.(scratchEvaluator)
	var newScratch func() (any, error)
	if pooled {
		newScratch = func() (any, error) {
			// A scratch-build failure (e.g. an unknown machine model) is
			// charged to the batch's first point, with the text the
			// unpooled Eval path reports.
			scratch, err := se.newScratch(r)
			if err != nil {
				err = wrap(0, err)
			}
			return scratch, err
		}
	}
	return sched.Sweep(ctx, "tune", len(pts), parallelism, newScratch, func(scratch any, i int) (float64, error) {
		var s float64
		var err error
		if pooled {
			s, err = se.evalScratch(ctx, r, sp, sp.Materialize(pts[i]), scratch)
		} else {
			s, err = obj.Eval(ctx, r, sp, sp.Materialize(pts[i]))
		}
		if err != nil {
			return 0, wrap(i, err)
		}
		tr.Count(obs.CounterTuneEvaluations, 1)
		return s, nil
	})
}
