// Package floatmerge exercises the concurrent-float-merge analyzer.
package floatmerge

import (
	"context"

	"servet/internal/sched"
)

func goStmt() float64 {
	var total float64
	done := make(chan struct{})
	go func() {
		total += 1.5 // want `float accumulation into captured "total" inside a go statement`
		close(done)
	}()
	<-done
	return total
}

func schedArg(ctx context.Context) (float64, error) {
	var acc float64
	err := sched.Go(ctx, func(ctx context.Context) error {
		acc -= 0.5 // want `float accumulation into captured "acc" inside a sched-scheduled closure`
		return nil
	})
	return acc, err
}

// sweepOK is the blessed discipline: accumulate locally, then write
// into a disjoint slot of the shared slice.
func sweepOK() []float64 {
	slots := make([]float64, 4)
	done := make(chan struct{})
	go func() {
		var local float64
		local += 3
		slots[0] = local
		close(done)
	}()
	<-done
	return slots
}

func sweepMeasure(ctx context.Context) (float64, error) {
	var total float64
	_, err := sched.Sweep(ctx, "t", 4, 2, nil, func(_ struct{}, i int) (int, error) {
		total += float64(i) // want `float accumulation into captured "total" inside a sched-scheduled closure`
		return i, nil
	})
	return total, err
}

// sweepSlotOK is the sweep idiom: each measurement writes only its
// own slot, and the caller sums the slots in index order.
func sweepSlotOK(ctx context.Context) (float64, error) {
	slots := make([]float64, 4)
	_, err := sched.Sweep(ctx, "t", 4, 2, nil, func(_ struct{}, i int) (struct{}, error) {
		var v float64
		v += float64(i)
		slots[i] = v * 0.5
		return struct{}{}, nil
	})
	var total float64
	for _, v := range slots {
		total += v
	}
	return total, err
}
