// Package sched is a fixture stub of servet/internal/sched: just
// enough surface for floatmerge's Task and entry-point checks.
package sched

import "context"

// Task is one unit of work.
type Task struct {
	Name string
	Deps []string
	Run  func(ctx context.Context) error
}

// Result is the outcome of one task.
type Result struct {
	Name string
}

// Run executes the tasks.
func Run(ctx context.Context, tasks []Task, parallelism int) ([]Result, error) {
	for _, t := range tasks {
		if err := t.Run(ctx); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

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
