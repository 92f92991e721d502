package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrderByTime(t *testing.T) {
	k := New()
	var order []int
	k.After(30, func() { order = append(order, 3) })
	k.After(10, func() { order = append(order, 1) })
	k.After(20, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 30 {
		t.Errorf("Now = %d, want 30", k.Now())
	}
}

func TestEventTieBreakBySequence(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(5, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-time events out of FIFO order: %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New()
	var hits []int64
	k.After(10, func() {
		hits = append(hits, k.Now())
		k.After(5, func() { hits = append(hits, k.Now()) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hits, []int64{10, 15}) {
		t.Errorf("hits = %v", hits)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestEventHeapOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		var times []int64
		for i := 0; i < 50; i++ {
			d := int64(rng.Intn(1000))
			k.After(d, func() { times = append(times, k.Now()) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == 50
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestScheduleAllocFree: events are held by value, so once the queue
// has grown to a run's depth, scheduling and firing allocate nothing.
func TestScheduleAllocFree(t *testing.T) {
	k := New()
	fired := 0
	fn := func() { fired++ }
	burst := func() {
		for i := int64(0); i < 64; i++ {
			k.After(i%7, fn)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst() // warm: grows the queue to 64 events
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Errorf("scheduling and running 64 events allocates %v/op on a warm kernel, want 0", n)
	}
	if fired != 64*22 {
		t.Errorf("fired %d events, want %d", fired, 64*22)
	}
}

func TestNS(t *testing.T) {
	if NS(10.4) != 10 || NS(10.6) != 11 {
		t.Error("NS rounding broken")
	}
	if NS(-5) != 0 {
		t.Error("NS negative should clamp to 0")
	}
	if NS(math.NaN()) != 0 {
		t.Error("NS(NaN) should be 0")
	}
	if NS(math.Inf(1)) != math.MaxInt64 {
		t.Error("NS(+Inf) should saturate")
	}
}

func TestProcSleep(t *testing.T) {
	k := New()
	var wake int64
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		wake = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 100 {
		t.Errorf("woke at %d, want 100", wake)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := New()
		var trace []string
		k.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				trace = append(trace, "a")
			}
		})
		k.Go("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Sleep(15)
				trace = append(trace, "b")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	want := []string{"a", "b", "a", "a", "b"} // t=10,15,20,30,30(a before b? a sleeps to 30, b to 30)
	// a: 10,20,30; b: 15,30. At t=30 a's event was scheduled at t=20,
	// b's at t=15; b's wake for 30 was scheduled earlier in real
	// sequence? b's second sleep (15->30) scheduled at t=15; a's third
	// (20->30) at t=20. FIFO seq => b first at t=30.
	want = []string{"a", "b", "a", "b", "a"}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("trace = %v, want %v", first, want)
	}
	for i := 0; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs: %v vs %v", i, got, first)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	var s Signal
	k.Go("stuck", func(p *Proc) { s.Wait(p) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Errorf("parked = %v", de.Parked)
	}
	if de.Error() == "" {
		t.Error("empty error string")
	}
}

func TestProcSpawnsProc(t *testing.T) {
	k := New()
	var childTime int64
	k.Go("parent", func(p *Proc) {
		p.Sleep(50)
		k.Go("child", func(c *Proc) {
			c.Sleep(25)
			childTime = c.Now()
		})
		p.Sleep(100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 75 {
		t.Errorf("child woke at %d, want 75", childTime)
	}
}

func TestProcNameAndKernel(t *testing.T) {
	k := New()
	k.Go("x", func(p *Proc) {
		if p.Name() != "x" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Kernel() != k {
			t.Error("Kernel mismatch")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcPanicPropagatesToRun(t *testing.T) {
	k := New()
	k.Go("bomb", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	_ = k.Run()
	t.Error("Run returned instead of panicking")
}
