package sim

import (
	"reflect"
	"testing"
)

func TestSignalBroadcast(t *testing.T) {
	k := New()
	var woke []string
	var s Signal
	for _, name := range []string{"w1", "w2"} {
		name := name
		k.Go(name, func(p *Proc) {
			s.Wait(p)
			woke = append(woke, name)
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(100)
		s.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 2 {
		t.Errorf("woke = %v", woke)
	}
	if !s.Fired() {
		t.Error("signal not marked fired")
	}
}

func TestSignalWaitAfterFire(t *testing.T) {
	k := New()
	var s Signal
	s.Fire()
	s.Fire() // double fire is a no-op
	done := false
	k.Go("late", func(p *Proc) {
		s.Wait(p) // must not block
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("late waiter blocked on fired signal")
	}
}

func TestResourceSerializes(t *testing.T) {
	k := New()
	r := NewResource(k)
	var finish []int64
	use := func(p *Proc) {
		r.Use(p, 100)
		finish = append(finish, p.Now())
	}
	k.Go("u1", use)
	k.Go("u2", use)
	k.Go("u3", use)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(finish, []int64{100, 200, 300}) {
		t.Errorf("finish times = %v", finish)
	}
}

func TestResourceIdleGap(t *testing.T) {
	k := New()
	r := NewResource(k)
	var finish int64
	k.Go("late", func(p *Proc) {
		p.Sleep(1000) // resource sits idle
		r.Use(p, 50)
		finish = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finish != 1050 {
		t.Errorf("finish = %d, want 1050 (no stale busy horizon)", finish)
	}
}

func TestResourceSchedule(t *testing.T) {
	k := New()
	r := NewResource(k)
	d1 := r.Schedule(100)
	d2 := r.Schedule(50)
	if d1 != 100 || d2 != 150 {
		t.Errorf("Schedule = %d,%d want 100,150", d1, d2)
	}
	if r.BusyUntil() != 150 {
		t.Errorf("BusyUntil = %d", r.BusyUntil())
	}
}

func TestResourceNegativePanics(t *testing.T) {
	k := New()
	r := NewResource(k)
	defer func() {
		if recover() == nil {
			t.Error("negative work did not panic")
		}
	}()
	r.Schedule(-1)
}

func TestMailboxRecvBeforeDeliver(t *testing.T) {
	k := New()
	mb := &Mailbox{}
	var got Message
	k.Go("rx", func(p *Proc) {
		got = mb.Recv(p, func(m Message) bool { return m.Tag == 7 })
	})
	k.After(50, func() {
		mb.Deliver(Message{From: 1, Tag: 7, Bytes: 42, Arrived: k.Now()})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Bytes != 42 || got.Arrived != 50 {
		t.Errorf("got = %+v", got)
	}
}

func TestMailboxDeliverBeforeRecv(t *testing.T) {
	k := New()
	mb := &Mailbox{}
	mb.Deliver(Message{Tag: 1, Bytes: 1})
	mb.Deliver(Message{Tag: 2, Bytes: 2})
	if mb.Pending() != 2 {
		t.Fatalf("pending = %d", mb.Pending())
	}
	var got Message
	k.Go("rx", func(p *Proc) {
		got = mb.Recv(p, func(m Message) bool { return m.Tag == 2 })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Bytes != 2 {
		t.Errorf("got = %+v", got)
	}
	if mb.Pending() != 1 {
		t.Errorf("pending after recv = %d", mb.Pending())
	}
}

func TestMailboxMatchSkipsNonMatching(t *testing.T) {
	k := New()
	mb := &Mailbox{}
	var gotA, gotB Message
	k.Go("rxA", func(p *Proc) {
		gotA = mb.Recv(p, func(m Message) bool { return m.Tag == 10 })
	})
	k.Go("rxB", func(p *Proc) {
		gotB = mb.Recv(p, func(m Message) bool { return m.Tag == 20 })
	})
	k.After(5, func() { mb.Deliver(Message{Tag: 20, Bytes: 200}) })
	k.After(10, func() { mb.Deliver(Message{Tag: 10, Bytes: 100}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotA.Bytes != 100 || gotB.Bytes != 200 {
		t.Errorf("gotA=%+v gotB=%+v", gotA, gotB)
	}
}

func TestMailboxFIFOAmongMatching(t *testing.T) {
	k := New()
	mb := &Mailbox{}
	mb.Deliver(Message{Tag: 1, Bytes: 1})
	mb.Deliver(Message{Tag: 1, Bytes: 2})
	var first, second Message
	k.Go("rx", func(p *Proc) {
		any := func(Message) bool { return true }
		first = mb.Recv(p, any)
		second = mb.Recv(p, any)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first.Bytes != 1 || second.Bytes != 2 {
		t.Errorf("order violated: first=%+v second=%+v", first, second)
	}
}

func TestPingPongProcs(t *testing.T) {
	// Two processes exchange a message through two mailboxes with
	// explicit delivery delay; the round trip time must be the sum of
	// the two one-way delays.
	k := New()
	a, b := &Mailbox{}, &Mailbox{}
	const oneWay = 300
	var rtt int64
	k.Go("ping", func(p *Proc) {
		start := p.Now()
		k.After(oneWay, func() { b.Deliver(Message{Tag: 1}) })
		a.Recv(p, func(m Message) bool { return m.Tag == 2 })
		rtt = p.Now() - start
	})
	k.Go("pong", func(p *Proc) {
		b.Recv(p, func(m Message) bool { return m.Tag == 1 })
		k.After(oneWay, func() { a.Deliver(Message{Tag: 2}) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt != 2*oneWay {
		t.Errorf("rtt = %d, want %d", rtt, 2*oneWay)
	}
}
