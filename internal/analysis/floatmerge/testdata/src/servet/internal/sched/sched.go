// Package sched is a fixture stub of servet/internal/sched: just
// enough surface for floatmerge's entry-point checks.
package sched

import "context"

// Go runs one closure (a direct-closure entry point).
func Go(ctx context.Context, fn func(ctx context.Context) error) error {
	return fn(ctx)
}

// Sweep measures every index (the generic sweep entry point).
func Sweep[T, S any](ctx context.Context, name string, n, parallelism int, newScratch func() (S, error), measure func(S, int) (T, error)) ([]T, error) {
	var scratch S
	out := make([]T, n)
	for i := range out {
		v, err := measure(scratch, i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
