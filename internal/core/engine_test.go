package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"servet/internal/obs"
	"servet/internal/topology"
)

// TestProbeEngineContract pins what the probe engine promises its
// callers, whatever runs the probes underneath: one "probe" span per
// executed probe (in canonical order at parallelism 1), none for a
// seeded probe, the caller's cancellation surfacing as the plain
// context error — even when every probe was seeded and nothing runs —
// and no probe starting once the context is done.
func TestProbeEngineContract(t *testing.T) {
	opt := Options{Seed: 1, CommReps: 2, BWSizes: []int64{4096}}
	base, err := NewSuite(topology.Dempsey(), opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := base.RunProbes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	restore := func(names ...string) map[string]Partial {
		seeded := map[string]Partial{}
		for _, name := range names {
			part, ok := Restore(name, fresh)
			if !ok {
				t.Fatalf("%s not restorable", name)
			}
			seeded[name] = part
		}
		return seeded
	}

	all := DefaultProbes()
	cases := []struct {
		name        string
		parallelism int
		seeded      map[string]Partial
		// ctx derives the run's context from a traced base; cancel
		// cancels that base.
		ctx       func(base context.Context, tr *obs.Tracer, cancel context.CancelFunc) context.Context
		wantErr   error
		wantSpans []string
		ordered   bool
	}{
		{
			name: "parallelism 1", parallelism: 1,
			wantSpans: all, ordered: true,
		},
		{
			name: "parallelism 4", parallelism: 4,
			wantSpans: all,
		},
		{
			name: "cache-size seeded", parallelism: 1,
			seeded:    restore("cache-size"),
			wantSpans: all[1:], ordered: true,
		},
		{
			name: "fully seeded, cancelled", parallelism: 1,
			seeded: restore(all...),
			ctx: func(base context.Context, _ *obs.Tracer, cancel context.CancelFunc) context.Context {
				cancel()
				return base
			},
			wantErr: context.Canceled,
		},
		{
			// cache-size's sweep makes no context lookup after its
			// first measurement, so the cancellation lands as
			// shared-caches starts its sweep; the probes after it
			// never start.
			name: "cancelled inside shared-caches", parallelism: 1,
			ctx: func(base context.Context, tr *obs.Tracer, cancel context.CancelFunc) context.Context {
				return &cancelAfterSweep{Context: base, tr: tr, cancel: cancel}
			},
			wantErr:   context.Canceled,
			wantSpans: all[:2], ordered: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := opt
			o.Parallelism = tc.parallelism
			s, err := NewSuite(topology.Dempsey(), o)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.New()
			ctx, cancel := context.WithCancel(obs.WithTracer(context.Background(), tr))
			defer cancel()
			if tc.ctx != nil {
				ctx = tc.ctx(ctx, tr, cancel)
			}

			_, _, err = s.RunSeeded(ctx, tc.seeded)
			if err != tc.wantErr {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			var pe *ProbeError
			if errors.As(err, &pe) {
				t.Fatalf("err = %v is a *ProbeError", err)
			}

			var got []string
			for _, sp := range tr.Spans() {
				if sp.Cat == "probe" {
					got = append(got, sp.Name)
				}
			}
			want := slices.Clone(tc.wantSpans)
			if !tc.ordered {
				slices.Sort(got)
				slices.Sort(want)
			}
			if !slices.Equal(got, want) {
				t.Errorf("probe spans = %v, want %v", got, want)
			}
		})
	}
}

// cancelAfterSweep cancels itself at the first context lookup made
// once the tracer has counted a sweep measurement.
type cancelAfterSweep struct {
	context.Context
	tr     *obs.Tracer
	cancel context.CancelFunc
}

func (c *cancelAfterSweep) Value(key any) any {
	if c.tr.Counter(obs.CounterSweepMeasurements) > 0 {
		c.cancel()
	}
	return c.Context.Value(key)
}
