package stats

import (
	"math"
	"reflect"
	"testing"
)

func TestGradient(t *testing.T) {
	c := []float64{2, 4, 4, 8}
	want := []float64{2, 1, 2}
	if got := Gradient(c); !reflect.DeepEqual(got, want) {
		t.Errorf("Gradient = %v, want %v", got, want)
	}
}

func TestGradientShortAndZero(t *testing.T) {
	if got := Gradient([]float64{1}); got != nil {
		t.Errorf("Gradient of 1 element = %v, want nil", got)
	}
	if got := Gradient(nil); got != nil {
		t.Errorf("Gradient of nil = %v, want nil", got)
	}
	got := Gradient([]float64{0, 5})
	if got[0] != 1 {
		t.Errorf("Gradient over zero = %v, want [1]", got)
	}
}

func TestFindRunsSingle(t *testing.T) {
	g := []float64{1, 1, 3, 1, 1}
	runs := FindRuns(g, 1.1, 1.25)
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	r := runs[0]
	if r.Start != 2 || r.End != 2 || r.Peak != 2 || r.Max != 3 || r.Width() != 1 {
		t.Errorf("run = %+v, want width-1 at index 2", r)
	}
}

func TestFindRunsWide(t *testing.T) {
	g := []float64{1, 1.3, 1.9, 1.4, 1, 1, 2.5, 1}
	runs := FindRuns(g, 1.1, 1.25)
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2: %+v", len(runs), runs)
	}
	if runs[0].Start != 1 || runs[0].End != 3 || runs[0].Peak != 2 || runs[0].Width() != 3 {
		t.Errorf("first run = %+v", runs[0])
	}
	if runs[1].Start != 6 || runs[1].End != 6 {
		t.Errorf("second run = %+v", runs[1])
	}
}

func TestFindRunsFiltersBlips(t *testing.T) {
	g := []float64{1, 1.15, 1, 1.15, 1.2, 1}
	runs := FindRuns(g, 1.1, 1.25)
	if len(runs) != 0 {
		t.Errorf("blips not filtered: %+v", runs)
	}
}

func TestFindRunsEmptyAndAllAbove(t *testing.T) {
	if runs := FindRuns(nil, 1.1, 1.25); len(runs) != 0 {
		t.Errorf("nil input: %+v", runs)
	}
	runs := FindRuns([]float64{2, 2, 2}, 1.1, 1.25)
	if len(runs) != 1 || runs[0].Start != 0 || runs[0].End != 2 {
		t.Errorf("all-above input: %+v", runs)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 3, 5}); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first tie)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d, want -1", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %g,%g", min, max)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax(empty) did not panic")
		}
	}()
	MinMax(nil)
}

func TestGradientThenRunsEndToEnd(t *testing.T) {
	// Synthetic mcalibrator-like curve: flat at 3 cycles until a sharp
	// 4x jump, then flat, then a smeared rise.
	c := []float64{3, 3, 3, 12, 12, 12, 15, 22, 30, 31, 31}
	g := Gradient(c)
	runs := FindRuns(g, 1.1, 1.25)
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2: %v", len(runs), runs)
	}
	if runs[0].Width() != 1 {
		t.Errorf("sharp transition width = %d, want 1", runs[0].Width())
	}
	if runs[1].Width() < 2 {
		t.Errorf("smeared transition width = %d, want >= 2", runs[1].Width())
	}
	if math.Abs(runs[0].Max-4) > 1e-9 {
		t.Errorf("sharp gradient = %g, want 4", runs[0].Max)
	}
}
