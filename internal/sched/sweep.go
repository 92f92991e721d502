// Package sched is the engine's one bounded fan-out. Sweep measures
// the independent items of a probe sweep, a tuner's candidate batch or
// a cluster of sessions in index-ordered chunks over at most a
// parallelism bound of workers, and returns the measurements indexed
// by input order, so output assembly is deterministic regardless of
// completion order.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"servet/internal/obs"
)

// Sweep runs measure(scratch, i) for every i in [0, n) and returns the
// measurements in index order. It is the engine's one fan-out for
// independent measurements — the probe sweeps of internal/core, a
// tuner's candidate batch, a cluster sweep of sessions:
//
//  1. plan: [0, n) splits into min(4·parallelism, n) contiguous,
//     index-ordered chunks, dealt in rounds of W = min(parallelism,
//     chunks), so every worker's items spread across the index range;
//  2. measure: W workers each build exactly one scratch with
//     newScratch (nil means the zero S), then run their chunks in
//     snake order: in round r worker w runs chunk rW+w when r is even
//     and rW+W-1-w when r is odd (w, 2W-1-w, 2W+w, ...), writing
//     measurement i into slot i and checking the context between
//     measurements; worker 0 runs on the calling goroutine. On a sweep
//     whose items cost more as the index rises (cache sizes, levels),
//     every worker then gets about the same work. The assignment is
//     static, so every worker measures the same items, and grows its
//     scratch the same way, however the host schedules the workers;
//  3. merge: the caller walks the returned slice sequentially, doing
//     everything order-sensitive there (float sums, noise, clustering).
//
// The plan depends only on (n, parallelism) and no slot shows which
// worker filled it, so results are byte-identical at any parallelism
// — provided a scratch carries no state a measurement observes (pooled
// memsys instances re-derive everything through ResetAt).
//
// A failed measurement or scratch build fails its chunk and stops the
// chunks after it; chunks before it run to the end. Sweep returns the
// first error in chunk order that is not a cancellation, else the
// caller's context error, else the first cancellation — unwrapped, the
// text an inline loop would have reported. A panic in newScratch or
// measure is recovered on every worker, the calling goroutine
// included, and fails its chunk as a *PanicError: at any parallelism
// it ends neither the process nor the caller, and reads the same.
//
// A tracer in ctx gets, per chunk, a "sched" span named
// "<name>:<chunk>" around a "sweep" span named name, plus the
// CounterScratchFresh (one per worker), CounterScratchReused (each
// later chunk on the same worker) and CounterSweepMeasurements
// counters. Untraced, the sweep allocates nothing per chunk.
func Sweep[T, S any](ctx context.Context, name string, n, parallelism int, newScratch func() (S, error), measure func(S, int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	parallelism = max(parallelism, 1)
	chunks := min(4*parallelism, n)
	out := make([]T, n)
	errs := make([]error, chunks) // errs[c] is written only by the worker that runs chunk c
	tr := obs.FromContext(ctx)
	workers := min(parallelism, chunks)
	var stopped atomic.Int64 // the lowest failed chunk
	stopped.Store(int64(chunks))
	fail := func(c int, err error) {
		errs[c] = err
		for s := stopped.Load(); int64(c) < s && !stopped.CompareAndSwap(s, int64(c)); s = stopped.Load() {
		}
	}
	// run measures chunk c into its slots and reports whether it
	// finished.
	run := func(scratch S, c int) (done bool) {
		if tr != nil {
			defer tr.Start("sched", fmt.Sprintf("%s:%d", name, c)).End()
			defer tr.Start("sweep", name).End()
		}
		start, end := c*n/chunks, (c+1)*n/chunks
		i := start
		defer func() {
			if v := recover(); v != nil {
				fail(c, &PanicError{Sweep: name, Item: i, Value: v, Stack: debug.Stack()})
				done = false
			}
		}()
		for ; i < end; i++ {
			if stopped.Load() < int64(c) {
				return false
			}
			err := ctx.Err()
			if err == nil {
				out[i], err = measure(scratch, i)
			}
			if err != nil {
				fail(c, err)
				return false
			}
		}
		tr.Count(obs.CounterSweepMeasurements, int64(end-start))
		return true
	}
	work := func(w int) {
		var scratch S
		var err error
		if newScratch != nil {
			scratch, err = buildScratch(name, newScratch)
		}
		if err == nil {
			tr.Count(obs.CounterScratchFresh, 1)
		}
		for r := 0; r*workers < chunks; r++ {
			c := r*workers + w
			if r%2 == 1 {
				c = r*workers + workers - 1 - w
			}
			if c >= chunks {
				// A short last round has no chunk for this worker.
				continue
			}
			if int64(c) > stopped.Load() {
				return
			}
			if err != nil {
				// A failed scratch build fails the chunk it would have run.
				fail(c, err)
				return
			}
			if r > 0 {
				tr.Count(obs.CounterScratchReused, 1)
			}
			if !run(scratch, c) {
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()

	var cancelled error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if cancelled == nil {
				cancelled = err
			}
		default:
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cancelled != nil {
		return nil, cancelled
	}
	return out, nil
}

// PanicError is a panic Sweep recovered from newScratch or measure. It
// fails its chunk like any other error. Its text holds no stack, so it
// reads the same at any parallelism.
type PanicError struct {
	// Sweep is the sweep's name.
	Sweep string
	// Item is the index of the measurement that panicked, or -1 when
	// newScratch did.
	Item int
	// Value is the value the code panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Item < 0 {
		return fmt.Sprintf("sched: sweep %s: scratch build panicked: %v", e.Sweep, e.Value)
	}
	return fmt.Sprintf("sched: sweep %s: item %d panicked: %v", e.Sweep, e.Item, e.Value)
}

// buildScratch runs newScratch, turning a panic into a *PanicError.
func buildScratch[S any](name string, newScratch func() (S, error)) (scratch S, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Sweep: name, Item: -1, Value: v, Stack: debug.Stack()}
		}
	}()
	return newScratch()
}
