package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// exact reference via direct pmf summation in big-ish float space for
// small n.
func refTail(n int, p float64, k int) float64 {
	tail := 0.0
	for i := k + 1; i <= n; i++ {
		tail += math.Exp(logChoose(n, i) + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return tail
}

func logChoose(n, k int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

func TestBinomialTailSmallExact(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		k    int
		want float64
	}{
		{1, 0.5, 0, 0.5},         // P(X>0) = p
		{2, 0.5, 0, 0.75},        // 1 - (1-p)^2
		{2, 0.5, 1, 0.25},        // p^2
		{4, 0.25, 3, 0.00390625}, // 0.25^4
	}
	for _, c := range cases {
		got := BinomialTail(c.n, c.p, c.k)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("BinomialTail(%d,%g,%d) = %g, want %g", c.n, c.p, c.k, got, c.want)
		}
	}
}

func TestBinomialTailMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		p := rng.Float64()*0.9 + 0.05
		k := rng.Intn(n + 1)
		got := BinomialTail(n, p, k)
		want := refTail(n, p, k)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("BinomialTail(%d,%g,%d) = %g, want %g", n, p, k, got, want)
		}
	}
}

func TestBinomialTailEdgeCases(t *testing.T) {
	if got := BinomialTail(10, 0, 5); got != 0 {
		t.Errorf("p=0: got %g, want 0", got)
	}
	if got := BinomialTail(10, 1, 5); got != 1 {
		t.Errorf("p=1, k<n: got %g, want 1", got)
	}
	if got := BinomialTail(10, 1, 10); got != 0 {
		t.Errorf("p=1, k=n: got %g, want 0", got)
	}
	if got := BinomialTail(10, 0.5, -1); got != 1 {
		t.Errorf("k<0: got %g, want 1", got)
	}
	if got := BinomialTail(10, 0.5, 10); got != 0 {
		t.Errorf("k=n: got %g, want 0", got)
	}
	if got := BinomialTail(-1, 0.5, 0); got != 0 {
		t.Errorf("n<0: got %g, want 0", got)
	}
}

func TestBinomialTailLargeNUnderflowSafe(t *testing.T) {
	// Cache-size estimator regime: n = 16384 pages, p = 1/64.
	// Mean is 256; tail above the mean must be ~0.5-ish and finite.
	got := BinomialTail(16384, 1.0/64, 255)
	if math.IsNaN(got) || got <= 0.4 || got >= 0.6 {
		t.Errorf("tail above mean = %g, want ~0.5", got)
	}
	// Far above the mean: essentially zero but not NaN.
	far := BinomialTail(16384, 1.0/64, 400)
	if math.IsNaN(far) || far > 1e-6 {
		t.Errorf("far tail = %g, want ~0", far)
	}
	// Far below the mean: essentially one.
	low := BinomialTail(16384, 1.0/64, 100)
	if low < 1-1e-6 {
		t.Errorf("low tail = %g, want ~1", low)
	}
}

func TestBinomialTailBoundsProperty(t *testing.T) {
	f := func(nRaw uint8, pRaw float64, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		p := math.Mod(math.Abs(pRaw), 1)
		k := int(kRaw) % (n + 1)
		v := BinomialTail(n, p, k)
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialTailMonotoneInK(t *testing.T) {
	f := func(nRaw uint8, pRaw float64) bool {
		n := int(nRaw%50) + 2
		p := math.Mod(math.Abs(pRaw), 0.98) + 0.01
		prev := 1.0
		for k := 0; k <= n; k++ {
			v := BinomialTail(n, p, k)
			if v > prev+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
