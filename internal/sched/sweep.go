package sched

import (
	"context"
	"errors"
	"fmt"
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
//     index-ordered chunks, so one expensive chunk cannot stall the
//     sweep behind a single worker;
//  2. measure: min(parallelism, chunks) workers each build exactly one
//     scratch with newScratch (nil means the zero S), then take chunks
//     in index order from a shared counter, writing measurement i into
//     slot i and checking the context between measurements; one worker
//     runs on the calling goroutine;
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
// text an inline loop would have reported.
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
	errs := make([]error, chunks) // errs[c] is written only by the worker that claimed chunk c
	tr := obs.FromContext(ctx)
	var next, stopped atomic.Int64 // the next chunk to claim; the lowest failed chunk
	stopped.Store(int64(chunks))
	fail := func(c int, err error) {
		errs[c] = err
		for s := stopped.Load(); int64(c) < s && !stopped.CompareAndSwap(s, int64(c)); s = stopped.Load() {
		}
	}
	// run measures chunk c into its slots and reports whether it
	// finished.
	run := func(scratch S, c int) bool {
		if tr != nil {
			defer tr.Start("sched", fmt.Sprintf("%s:%d", name, c)).End()
			defer tr.Start("sweep", name).End()
		}
		start, end := c*n/chunks, (c+1)*n/chunks
		for i := start; i < end; i++ {
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
	work := func() {
		var scratch S
		var err error
		if newScratch != nil {
			scratch, err = newScratch()
		}
		if err == nil {
			tr.Count(obs.CounterScratchFresh, 1)
		}
		for reuse := false; ; reuse = true {
			c := int(next.Add(1) - 1)
			if c >= chunks || int64(c) > stopped.Load() {
				return
			}
			if err != nil {
				// A failed scratch build fails the chunk it would have run.
				fail(c, err)
				return
			}
			if reuse {
				tr.Count(obs.CounterScratchReused, 1)
			}
			if !run(scratch, c) {
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < min(parallelism, chunks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
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
