package sim

// Signal is a one-shot broadcast condition: processes Wait until some
// context Fires it; waits after the fire return immediately.
type Signal struct {
	fired   bool
	waiters []func()
}

// Wait blocks the process until the signal fires (returns immediately
// if it already fired).
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	p.Park(func(wake func()) { s.waiters = append(s.waiters, wake) })
}

// Fire releases all current and future waiters. Firing twice is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		w()
	}
	s.waiters = nil
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Resource is a FIFO rate server: a shared facility (a NIC link, a
// front-side bus) that serves work sequentially at a fixed rate.
// Concurrent users queue; the queue is implicit in the busy horizon.
type Resource struct {
	k *Kernel
	// busyUntil is the virtual time at which previously accepted work
	// completes.
	busyUntil int64
}

// NewResource creates a resource on the kernel.
func NewResource(k *Kernel) *Resource { return &Resource{k: k} }

// Use blocks the process until the resource has served d nanoseconds of
// work for it, queueing FIFO behind earlier users.
func (r *Resource) Use(p *Proc, d int64) {
	if d < 0 {
		panic("sim: negative resource work")
	}
	start := r.k.now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + d
	p.Sleep(r.busyUntil - r.k.now)
}

// Schedule reserves d nanoseconds of work without blocking and returns
// the completion time. Event-context users (message deliveries) use it
// to model serialization without a process.
func (r *Resource) Schedule(d int64) (done int64) {
	if d < 0 {
		panic("sim: negative resource work")
	}
	start := r.k.now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + d
	return r.busyUntil
}

// BusyUntil returns the current busy horizon of the resource.
func (r *Resource) BusyUntil() int64 { return r.busyUntil }

// Message is a unit carried by a Mailbox. The mpisim package layers
// MPI-style matching (source, tag, protocol kind) on these fields.
type Message struct {
	From    int   // sender identifier
	Tag     int   // application tag
	Kind    int   // protocol kind (mpisim: eager, RTS, CTS, data)
	Bytes   int64 // payload size
	Arrived int64 // virtual arrival time
	Payload any   // optional application payload
}

// Mailbox is an ordered message store with blocking, predicate-matched
// receives. Deliveries and receives preserve FIFO order among matching
// messages.
type Mailbox struct {
	msgs    []Message
	waiters []*mboxWaiter
}

type mboxWaiter struct {
	match func(Message) bool
	out   *Message
	wake  func()
	taken bool
}

// Deliver appends a message and hands it to the first parked waiter
// whose predicate matches, if any. It may be called from event or
// process context.
func (mb *Mailbox) Deliver(msg Message) {
	for _, w := range mb.waiters {
		if !w.taken && w.match(msg) {
			w.taken = true
			*w.out = msg
			mb.compactWaiters()
			w.wake()
			return
		}
	}
	mb.msgs = append(mb.msgs, msg)
}

// Recv blocks the process until a message matching the predicate is
// available and returns it. Matching scans pending messages in arrival
// order.
func (mb *Mailbox) Recv(p *Proc, match func(Message) bool) Message {
	for i, m := range mb.msgs {
		if match(m) {
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			return m
		}
	}
	var out Message
	w := &mboxWaiter{match: match, out: &out}
	p.Park(func(wake func()) {
		w.wake = wake
		mb.waiters = append(mb.waiters, w)
	})
	return out
}

// Pending returns the number of undelivered messages.
func (mb *Mailbox) Pending() int { return len(mb.msgs) }

func (mb *Mailbox) compactWaiters() {
	kept := mb.waiters[:0]
	for _, w := range mb.waiters {
		if !w.taken {
			kept = append(kept, w)
		}
	}
	mb.waiters = kept
}
