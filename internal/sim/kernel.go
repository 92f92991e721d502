// Package sim is a small deterministic discrete-event simulation
// kernel with cooperatively scheduled processes.
//
// Time is virtual, in integer nanoseconds. Events fire in (time,
// sequence) order, so runs are fully reproducible. Processes are
// goroutines that execute strictly one at a time: the kernel hands a
// baton to a process and waits until it parks again (Sleep, Park,
// resource wait, mailbox receive) before processing the next event.
// This gives process-style modelling (used by internal/mpisim for MPI
// ranks) without data races or host-scheduling nondeterminism.
//
// A Kernel and everything attached to it (processes, resources,
// mailboxes) belong to a single simulation and must not be shared
// across goroutines; concurrency across simulations is safe because
// kernels share no state — the probe engine exploits exactly that by
// running many independent simulations in parallel.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; create kernels with New.
type Kernel struct {
	now    int64
	seq    int64
	events eventHeap
	// live processes that are parked waiting for a wake-up (used for
	// deadlock detection when the event queue drains).
	parked map[*Proc]bool
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel {
	return &Kernel{parked: make(map[*Proc]bool)}
}

// Now returns the current virtual time in nanoseconds.
func (k *Kernel) Now() int64 { return k.now }

// After schedules fn to run d nanoseconds from now. A negative delay
// panics: the simulation cannot travel back in time.
func (k *Kernel) After(d int64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	k.schedule(k.now+d, fn)
}

func (k *Kernel) schedule(t int64, fn func()) {
	k.seq++
	k.events.push(event{t: t, seq: k.seq, fn: fn})
}

// Run processes events until the queue is empty. It returns a
// DeadlockError if processes are still parked when no event remains.
func (k *Kernel) Run() error {
	for len(k.events) > 0 {
		ev := k.events.pop()
		if ev.t < k.now {
			panic("sim: event queue went backwards")
		}
		k.now = ev.t
		ev.fn()
	}
	if len(k.parked) > 0 {
		names := make([]string, 0, len(k.parked))
		for p := range k.parked {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return &DeadlockError{Parked: names, Time: k.now}
	}
	return nil
}

// DeadlockError reports processes left parked after the event queue
// drained.
type DeadlockError struct {
	Parked []string // names of the parked processes
	Time   int64    // virtual time at which the simulation stalled
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%dns, parked processes: %v", e.Time, e.Parked)
}

// NS converts a float64 nanosecond quantity to the kernel's integer
// time unit, rounding to nearest and saturating at the int64 range.
func NS(ns float64) int64 {
	if math.IsNaN(ns) || ns <= 0 {
		return 0
	}
	if ns >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(ns + 0.5)
}

type event struct {
	t   int64
	seq int64
	fn  func()
}

// eventHeap is a binary min-heap of events ordered by (t, seq). It
// holds the events by value, so scheduling one costs no allocation
// beyond the slice's amortized growth.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for c := len(q) - 1; c > 0; {
		p := (c - 1) / 2
		if !q.less(c, p) {
			break
		}
		q[c], q[p] = q[p], q[c]
		c = p
	}
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = event{} // drop the closure reference
	q = q[:n]
	for c := 0; ; {
		min, l, r := c, 2*c+1, 2*c+2
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == c {
			break
		}
		q[c], q[min] = q[min], q[c]
		c = min
	}
	*h = q
	return ev
}
