package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"servet/internal/obs"
)

// square is the trivial scratch-free measurement most tests sweep.
func square(_ struct{}, i int) (int, error) { return i * i, nil }

// TestSweepPlanProperty: for arbitrary (n, parallelism) the sweep
// measures every index exactly once into its own slot, in
// min(4·parallelism, n) chunks — the invariant every sharded sweep
// rests on.
func TestSweepPlanProperty(t *testing.T) {
	check := func(n, parallelism int) bool {
		tr := obs.New()
		visits := make([]atomic.Int32, max(n, 0))
		out, err := Sweep(obs.WithTracer(context.Background(), tr), "t", n, parallelism, nil,
			func(_ struct{}, i int) (int, error) {
				visits[i].Add(1)
				return i, nil
			})
		if err != nil {
			t.Errorf("Sweep(n=%d, p=%d): %v", n, parallelism, err)
			return false
		}
		if n <= 0 {
			return out == nil
		}
		for i := range visits {
			if visits[i].Load() != 1 || out[i] != i {
				t.Errorf("Sweep(n=%d, p=%d): slot %d visited %d times, holds %d", n, parallelism, i, visits[i].Load(), out[i])
				return false
			}
		}
		chunks := 0
		for name, count := range tr.SpanCounts() {
			if strings.HasPrefix(name, "sched/t:") {
				chunks += count
			}
		}
		want := min(4*max(parallelism, 1), n)
		if chunks != want || tr.Counter(obs.CounterSweepMeasurements) != int64(n) {
			t.Errorf("Sweep(n=%d, p=%d): %d chunks, %d measurements; want %d, %d",
				n, parallelism, chunks, tr.Counter(obs.CounterSweepMeasurements), want, n)
			return false
		}
		return true
	}
	f := func(n uint16, parallelism uint8) bool {
		return check(int(n%2000), int(parallelism%16))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Pinned edges: empty, singleton, fewer items than workers, more
	// chunks than items, degenerate parallelism, and a large sweep.
	for _, c := range []struct{ n, parallelism int }{
		{0, 4}, {-3, 4}, {1, 4}, {3, 8}, {5, 0}, {5, -1}, {17, 1}, {100000, 7},
	} {
		check(c.n, c.parallelism)
	}
}

// TestSweepOrderedResults: measurements land in their own slots in
// index order at any parallelism, regardless of completion order.
func TestSweepOrderedResults(t *testing.T) {
	for _, parallelism := range []int{1, 3, 8} {
		out, err := Sweep(context.Background(), "t", 100, parallelism, nil, square)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("parallelism %d: %d results", parallelism, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallelism %d: slot %d = %d, want %d", parallelism, i, v, i*i)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	out, err := Sweep(context.Background(), "t", 0, 4,
		func() (int, error) {
			t.Error("scratch built for an empty sweep")
			return 0, nil
		},
		func(int, int) (int, error) {
			t.Error("measure called on an empty sweep")
			return 0, nil
		})
	if out != nil || err != nil {
		t.Errorf("empty sweep = %v, %v", out, err)
	}
}

// TestSweepPropagatesMeasurementError: a failing measurement aborts
// the sweep and surfaces its own error, unwrapped — the same text an
// inline loop would have reported.
func TestSweepPropagatesMeasurementError(t *testing.T) {
	boom := errors.New("measurement 7 failed")
	for _, parallelism := range []int{1, 4} {
		_, err := Sweep(context.Background(), "t", 20, parallelism, nil, func(_ struct{}, i int) (int, error) {
			if i == 7 {
				return 0, boom
			}
			return i, nil
		})
		if err != boom {
			t.Errorf("parallelism %d: err = %v, want the measurement's own error", parallelism, err)
		}
	}
}

func TestSweepCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallelism := range []int{1, 4} {
		_, err := Sweep(ctx, "t", 20, parallelism, nil, func(_ struct{}, i int) (int, error) {
			t.Error("measured under a cancelled context")
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", parallelism, err)
		}
	}
}

// TestSweepLowestChunkErrorWins: with failing indices in two chunks,
// the lower chunk's error is returned on every run, even when the
// higher chunk fails first.
func TestSweepLowestChunkErrorWins(t *testing.T) {
	low, high := errors.New("index 10 failed"), errors.New("index 90 failed")
	for run := 0; run < 20; run++ {
		_, err := Sweep(context.Background(), "t", 100, 4, nil, func(_ struct{}, i int) (int, error) {
			switch {
			case i == 90:
				return 0, high
			case i == 10:
				return 0, low
			case i < 10:
				time.Sleep(50 * time.Microsecond) // let chunk 14 fail first
			}
			return i, nil
		})
		if err != low {
			t.Fatalf("run %d: err = %v, want %v", run, err, low)
		}
	}
}

// TestSweepRealErrorBeatsCancellation: a measurement that cancels the
// caller's context and fails makes the lower chunks still in flight
// return context.Canceled; the sweep reports the real error, not one
// of those casualties.
func TestSweepRealErrorBeatsCancellation(t *testing.T) {
	boom := errors.New("index 60 failed")
	for run := 0; run < 20; run++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Sweep(ctx, "t", 100, 4, nil, func(_ struct{}, i int) (int, error) {
			if i == 60 {
				cancel()
				return 0, boom
			}
			if i < 60 {
				time.Sleep(20 * time.Microsecond)
			}
			return i, nil
		})
		cancel()
		if err != boom {
			t.Fatalf("run %d: err = %v, want %v", run, err, boom)
		}
	}
}

// TestSweepScratchSequentialReuse: at parallelism 1 exactly one
// scratch is built and threaded through every chunk, and every
// measurement still lands in its own slot.
func TestSweepScratchSequentialReuse(t *testing.T) {
	built := 0
	out, err := Sweep(context.Background(), "t", 20, 1,
		func() (*int, error) { built++; v := 0; return &v, nil },
		func(sc *int, i int) (int, error) {
			*sc++ // scratch is worker-private state
			return i * 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if built != 1 {
		t.Errorf("built %d scratches at parallelism 1, want 1", built)
	}
	for i, v := range out {
		if v != i*10 {
			t.Fatalf("slot %d = %d, want %d", i, v, i*10)
		}
	}
}

// TestSweepScratchPerWorker: the sweep builds exactly one scratch per
// worker, min(parallelism, chunks), however the host schedules the
// chunks — and counts them as fresh in the tracer.
func TestSweepScratchPerWorker(t *testing.T) {
	for _, n := range []int{3, 100} {
		for _, parallelism := range []int{1, 2, 4, 8} {
			var built atomic.Int32
			tr := obs.New()
			out, err := Sweep(obs.WithTracer(context.Background(), tr), "t", n, parallelism,
				func() (*int32, error) { built.Add(1); v := int32(0); return &v, nil },
				func(sc *int32, i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatal(err)
			}
			want := min(parallelism, n) // min(parallelism, chunks)
			if got := built.Load(); got != int32(want) {
				t.Errorf("n %d, parallelism %d: built %d scratches, want %d", n, parallelism, got, want)
			}
			if got := tr.Counter(obs.CounterScratchFresh); got != int64(want) {
				t.Errorf("n %d, parallelism %d: %d fresh scratches counted, want %d", n, parallelism, got, want)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("n %d, parallelism %d: slot %d = %d, want %d", n, parallelism, i, v, i*i)
				}
			}
		}
	}
}

// TestSweepStaticAssignment pins the chunk→worker map: chunks are
// dealt in rounds of W workers, forwards in even rounds and backwards
// in odd ones, so worker w runs chunks w, 2W-1-w, 2W+w, ... in that
// order, on every run, however the host schedules the workers. So each
// worker's scratch sees the same items on every run, and grows the
// same way. At parallelism 8, 100 items split into 32 chunks; the
// smaller cases end in a short round, even and odd.
func TestSweepStaticAssignment(t *testing.T) {
	for _, tc := range []struct{ n, parallelism, chunks, workers int }{
		{100, 8, 32, 8},
		{7, 3, 7, 3},
		{6, 4, 6, 4},
	} {
		// worker(c) is the worker the snake order deals chunk c to.
		worker := func(c int) int {
			if r, pos := c/tc.workers, c%tc.workers; r%2 == 1 {
				return tc.workers - 1 - pos
			}
			return c % tc.workers
		}
		type scratch struct{ seq int }
		for run := 0; run < 20; run++ {
			var built atomic.Int32
			type visit struct {
				w   *scratch
				seq int
			}
			visits, err := Sweep(context.Background(), "t", tc.n, tc.parallelism,
				func() (*scratch, error) { built.Add(1); return &scratch{}, nil },
				func(w *scratch, i int) (visit, error) {
					w.seq++
					return visit{w, w.seq}, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if built.Load() != int32(tc.workers) {
				t.Fatalf("%+v run %d: built %d scratches, want %d", tc, run, built.Load(), tc.workers)
			}
			first := make([]visit, tc.chunks)
			for c := range first {
				first[c] = visits[c*tc.n/tc.chunks]
				for _, v := range visits[c*tc.n/tc.chunks : (c+1)*tc.n/tc.chunks] {
					if v.w != first[c].w {
						t.Fatalf("%+v run %d: chunk %d ran on two workers", tc, run, c)
					}
				}
			}
			for c := range first {
				for d := range first[:c] {
					if same := first[c].w == first[d].w; same != (worker(c) == worker(d)) {
						t.Fatalf("%+v run %d: chunks %d and %d on one worker: %v, want %v", tc, run, d, c, same, !same)
					}
					if first[c].w == first[d].w && first[c].seq <= first[d].seq {
						t.Fatalf("%+v run %d: chunk %d ran before chunk %d on its worker", tc, run, c, d)
					}
				}
			}
		}
	}
}

// TestSweepScratchPropagatesError: measurement and scratch-build
// errors come back unwrapped.
func TestSweepScratchPropagatesError(t *testing.T) {
	boom := errors.New("measurement 3 failed")
	_, err := Sweep(context.Background(), "t", 10, 2,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if err != boom {
		t.Errorf("err = %v, want the measurement's own error", err)
	}

	build := errors.New("scratch build failed")
	for _, parallelism := range []int{1, 4} {
		_, err := Sweep(context.Background(), "t", 10, parallelism,
			func() (int, error) { return 0, build },
			func(int, int) (int, error) {
				t.Error("measured without a scratch")
				return 0, nil
			})
		if err != build {
			t.Errorf("parallelism %d: err = %v, want the scratch-build error", parallelism, err)
		}
	}
}

// TestSweepTraceCounters: at parallelism 1 the one worker's scratch is
// fresh once and reused by every later chunk, each chunk records a
// "sched" span named <name>:<chunk> and a "sweep" span named <name>.
func TestSweepTraceCounters(t *testing.T) {
	tr := obs.New()
	if _, err := Sweep(obs.WithTracer(context.Background(), tr), "t", 10, 1, nil, square); err != nil {
		t.Fatal(err)
	}
	if fresh, reused := tr.Counter(obs.CounterScratchFresh), tr.Counter(obs.CounterScratchReused); fresh != 1 || reused != 3 {
		t.Errorf("scratch fresh/reused = %d/%d, want 1/3", fresh, reused)
	}
	counts := tr.SpanCounts()
	for c := 0; c < 4; c++ {
		if counts[fmt.Sprintf("sched/t:%d", c)] != 1 {
			t.Errorf("chunk %d: no sched span (%v)", c, counts)
		}
	}
	if counts["sweep/t"] != 4 || tr.Counter(obs.CounterSweepMeasurements) != 10 {
		t.Errorf("sweep spans %d, measurements %d; want 4, 10", counts["sweep/t"], tr.Counter(obs.CounterSweepMeasurements))
	}
}

// TestSweepUntracedAllocsIndependentOfN: without a tracer the sweep
// allocates the same number of times for 16 items as for 4096 — the
// result slice and per-worker set-up, nothing per chunk or item.
func TestSweepUntracedAllocsIndependentOfN(t *testing.T) {
	ctx := context.Background()
	for _, parallelism := range []int{1, 4} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(50, func() {
				if _, err := Sweep(ctx, "t", n, parallelism, nil, square); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(16), allocs(4096); large > small {
			t.Errorf("parallelism %d: %g allocs at n=4096, %g at n=16", parallelism, large, small)
		}
	}
}

// TestSweepRecoversPanics: a measurement that panics on item k, or a
// scratch build that panics, fails the sweep with a *PanicError whose
// text is the same at every parallelism, instead of ending the
// process from a worker goroutine.
func TestSweepRecoversPanics(t *testing.T) {
	const k = 13
	var texts []string
	for _, parallelism := range []int{1, 2, 4} {
		_, err := Sweep(context.Background(), "t", 40, parallelism, nil, func(_ struct{}, i int) (int, error) {
			if i == k {
				panic(fmt.Sprintf("bad item %d", i))
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: err = %v, want a *PanicError", parallelism, err)
		}
		if pe.Sweep != "t" || pe.Item != k || pe.Value != fmt.Sprintf("bad item %d", k) || len(pe.Stack) == 0 {
			t.Errorf("parallelism %d: %+v", parallelism, pe)
		}
		texts = append(texts, err.Error())
	}
	for _, text := range texts[1:] {
		if text != texts[0] {
			t.Errorf("error text %q differs from parallelism 1's %q", text, texts[0])
		}
	}
	if want := "sched: sweep t: item 13 panicked: bad item 13"; texts[0] != want {
		t.Errorf("error text %q, want %q", texts[0], want)
	}

	for _, parallelism := range []int{1, 2, 4} {
		_, err := Sweep(context.Background(), "t", 40, parallelism,
			func() (int, error) { panic("no scratch") },
			func(int, int) (int, error) {
				t.Error("measured without a scratch")
				return 0, nil
			})
		if want := "sched: sweep t: scratch build panicked: no scratch"; err == nil || err.Error() != want {
			t.Errorf("parallelism %d: err = %v, want %q", parallelism, err, want)
		}
	}
}

// TestSweepUntracedAllocsNothingPerChunk: without a tracer a sweep of
// four chunks allocates as often as a sweep of one, so the per-chunk
// panic recovery costs no allocation.
func TestSweepUntracedAllocsNothingPerChunk(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := Sweep(context.Background(), "t", n, 1, nil, square); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, four := allocs(1), allocs(4); four > one {
		t.Errorf("%g allocs for 4 chunks, %g for 1", four, one)
	}
}
