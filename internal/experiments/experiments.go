// Package experiments regenerates every table and figure of the
// paper's evaluation (Section IV) on the simulated machines, plus the
// ablations called out in DESIGN.md. The same generators back the
// cmd/servet-experiments binary and the bench_test.go benchmarks, and
// EXPERIMENTS.md records their output against the paper's claims.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"servet/internal/sched"
)

// Series is one plotted line of a figure.
type Series struct {
	// Name labels the line ("dunnington", "bus", "same-L2", ...).
	Name string
	// X and Y are the data points.
	X []float64
	Y []float64
}

// Result is the regenerated artifact for one experiment id.
type Result struct {
	// ID is the experiment identifier ("fig2a", "table1", ...).
	ID string
	// Title describes the artifact as the paper captions it.
	Title string
	// XLabel / YLabel name the axes of figure experiments.
	XLabel, YLabel string
	// Series holds the figure data (empty for table experiments).
	Series []Series
	// Text holds preformatted table output (empty for pure figures).
	Text string
	// Notes record the shape facts this run exhibits, ready for
	// comparison against the paper's claims.
	Notes []string
}

// Opt tunes experiment generation.
type Opt struct {
	// Seed drives page placement and noise (default 1).
	Seed int64
	// Quick trades measurement repetitions for speed (used by tests).
	Quick bool
	// Parallelism bounds how many experiments RunAll generates
	// concurrently (default 1). Every experiment builds its own
	// simulator instances, so results are identical at any
	// parallelism.
	Parallelism int
}

func (o Opt) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// generator produces one experiment.
type generator struct {
	title string
	run   func(context.Context, Opt) (*Result, error)
}

var registry = map[string]generator{
	"fig2a":     {"Fig. 2(a): cycles to traverse an array (mcalibrator)", fig2a},
	"fig2b":     {"Fig. 2(b): gradient of the rise of cycles", fig2b},
	"iva":       {"Section IV-A: cache size estimates on four machines", sectionIVA},
	"fig8a":     {"Fig. 8(a): shared cache detection, Dunnington", fig8a},
	"fig8b":     {"Fig. 8(b): shared cache detection, Finis Terrae", fig8b},
	"fig9a":     {"Fig. 9(a): memory access performance, two simultaneous accesses", fig9a},
	"fig9b":     {"Fig. 9(b): memory access performance, multiple simultaneous accesses", fig9b},
	"fig10a":    {"Fig. 10(a): message-passing latency (L1 message size)", fig10a},
	"fig10b":    {"Fig. 10(b): latency scalability (L1 message size)", fig10b},
	"fig10c":    {"Fig. 10(c): point-to-point bandwidth, Dunnington", fig10c},
	"fig10d":    {"Fig. 10(d): point-to-point bandwidth, Finis Terrae", fig10d},
	"table1":    {"Table I: execution times of all the benchmarks", table1},
	"ablation1": {"Ablation: probe stride vs hardware prefetcher", ablationStride},
	"ablation2": {"Ablation: naive gradient peaks vs probabilistic estimator", ablationNaive},
}

// IDs lists the available experiment identifiers in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the caption of an experiment id (empty if unknown).
func Title(id string) string { return registry[id].title }

// Run regenerates one experiment under a context: cancelling it
// aborts before the generator starts or, once it runs, between the
// measurements of its core sweeps.
func Run(ctx context.Context, id string, opt Opt) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gen, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	res, err := gen.run(ctx, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = gen.title
	return res, nil
}

// RunAll regenerates every experiment through sched.Sweep: the
// independent generators fan out over at most Opt.Parallelism
// workers, and the results come back in id order regardless of
// completion order. On failure it returns the results that completed
// (still in id order) and the error of the failed experiment earliest
// in id order; experiments after it that have not started are not
// run, while generators already running finish. Cancelling the
// context stops launching experiments and aborts the running ones.
func RunAll(ctx context.Context, opt Opt) ([]*Result, error) {
	ids := IDs()
	slots := make([]*Result, len(ids))
	_, err := sched.Sweep(ctx, "experiments", len(ids), opt.Parallelism, nil, func(_ struct{}, i int) (struct{}, error) {
		res, err := Run(ctx, ids[i], opt)
		slots[i] = res
		return struct{}{}, err
	})
	out := make([]*Result, 0, len(ids))
	for _, res := range slots {
		if res != nil {
			out = append(out, res)
		}
	}
	return out, err
}
