package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// opFunc runs one operation of a workload, including its output
// check. A non-nil error marks the operation failed: it either
// returned an error or produced output that failed the check.
type opFunc func() error

// setupFunc builds a workload's fixture from the benchmark seed and
// runs its warm-up operations. It returns the operation the window
// times and, optionally, a check to run once the window has ended.
type setupFunc func(seed int64) (op opFunc, finish func() error, err error)

// window is one closed-loop measurement: a single client calls op
// back to back until the window's duration has passed (and at least
// once).
type window struct {
	lat       []time.Duration
	failed    int
	cpu       time.Duration
	allocated uint64
	peakRSS   int64 // bytes
}

// measureWindow runs the closed loop. The heap is collected first so
// that set-up garbage is not charged to the window; collections the
// window itself triggers are charged to it.
func measureWindow(op opFunc, d time.Duration) window {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	w := window{lat: make([]time.Duration, 0, 1<<16)}
	start := time.Now()
	for len(w.lat) == 0 || time.Since(start) < d {
		t0 := time.Now()
		err := op()
		w.lat = append(w.lat, time.Since(t0))
		if err != nil {
			if w.failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", len(w.lat), err)
			}
			w.failed++
		}
	}
	w.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	w.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	w.peakRSS = peakRSS()
	return w
}

// processCPU returns the process's user plus system CPU time. Time
// the host steals from the process does not count.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's maximum resident set size in bytes
// (Linux reports ru_maxrss in KiB).
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10
}

// allocDuring returns the heap bytes fn allocates (TotalAlloc delta;
// other goroutines' allocations during fn count too).
func allocDuring(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}
