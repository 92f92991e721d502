package stats

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// clusterValues clusters values by relative similarity within relTol
// and returns the assignment with each class's founding value.
func clusterValues(values []float64, relTol float64) (assignment []int, representatives []float64) {
	assignment, reps := Cluster(len(values), func(i, rep int) bool {
		return Similar(values[i], values[rep], relTol)
	})
	for _, rep := range reps {
		representatives = append(representatives, values[rep])
	}
	return assignment, representatives
}

func TestClusterBasic(t *testing.T) {
	values := []float64{100, 102, 50, 98, 51}
	assign, reps := clusterValues(values, 0.10)
	want := []int{0, 0, 1, 0, 1}
	if !reflect.DeepEqual(assign, want) {
		t.Errorf("assignment = %v, want %v", assign, want)
	}
	if len(reps) != 2 || reps[0] != 100 || reps[1] != 50 {
		t.Errorf("representatives = %v", reps)
	}
}

// TestClusterFirstMatch: an item similar to several classes joins the
// first one created, and a class is compared by its founding item, not
// its latest member.
func TestClusterFirstMatch(t *testing.T) {
	// 107 is within 10% of both 100 and 116.
	if assign, _ := clusterValues([]float64{100, 116, 107}, 0.10); !reflect.DeepEqual(assign, []int{0, 1, 0}) {
		t.Errorf("assignment = %v, want [0 1 0]", assign)
	}
	// 117 is within 10% of 109 but not of the founder 100.
	if assign, _ := clusterValues([]float64{100, 109, 117}, 0.10); !reflect.DeepEqual(assign, []int{0, 0, 1}) {
		t.Errorf("assignment = %v, want [0 0 1]", assign)
	}
}

func TestClusterAllDistinct(t *testing.T) {
	values := []float64{1, 10, 100}
	assign, reps := clusterValues(values, 0.05)
	if len(reps) != 3 {
		t.Errorf("want 3 classes, got %d", len(reps))
	}
	if !reflect.DeepEqual(assign, []int{0, 1, 2}) {
		t.Errorf("assignment = %v", assign)
	}
}

func TestClusterEmpty(t *testing.T) {
	assign, reps := clusterValues(nil, 0.1)
	if len(assign) != 0 || len(reps) != 0 {
		t.Errorf("empty input produced %v / %v", assign, reps)
	}
}

func TestClusterIdempotentProperty(t *testing.T) {
	// Clustering the representatives again must not merge classes:
	// each representative stays its own class (they were pairwise
	// dissimilar when created... note first-match semantics mean reps
	// are dissimilar from all *earlier* reps, which is what we check).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		values := make([]float64, 20)
		for i := range values {
			values[i] = rng.Float64()*1000 + 1
		}
		_, reps := clusterValues(values, 0.1)
		_, reps2 := clusterValues(reps, 0.1)
		return len(reps2) == len(reps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilar(t *testing.T) {
	if !Similar(100, 95, 0.10) {
		t.Error("100 ~ 95 at 10% should hold")
	}
	if Similar(100, 80, 0.10) {
		t.Error("100 ~ 80 at 10% should not hold")
	}
	if !Similar(0, 0, 0.10) {
		t.Error("0 ~ 0 should hold")
	}
	if Similar(0, 1, 0.10) {
		t.Error("0 ~ 1 should not hold")
	}
	// Symmetry.
	if Similar(95, 100, 0.10) != Similar(100, 95, 0.10) {
		t.Error("Similar is not symmetric")
	}
}

func TestComponentsPaperExample(t *testing.T) {
	// The example from Section III-C of the paper: pairs
	// (0,1),(0,2),(3,4),(3,5) identify groups {0,1,2} and {3,4,5}.
	pairs := [][2]int{{0, 1}, {0, 2}, {3, 4}, {3, 5}}
	groups := Components(pairs)
	want := [][]int{{0, 1, 2}, {3, 4, 5}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("Components = %v, want %v", groups, want)
	}
}

func TestComponentsChain(t *testing.T) {
	pairs := [][2]int{{5, 4}, {4, 3}, {1, 0}}
	groups := Components(pairs)
	want := [][]int{{0, 1}, {3, 4, 5}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("Components = %v, want %v", groups, want)
	}
}

func TestComponentsEmpty(t *testing.T) {
	if got := Components(nil); len(got) != 0 {
		t.Errorf("Components(nil) = %v", got)
	}
}

func TestComponentsUnionAllProperty(t *testing.T) {
	// Every vertex mentioned in the input appears in exactly one
	// component.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pairs [][2]int
		vertices := map[int]bool{}
		for i := 0; i < 15; i++ {
			a, b := rng.Intn(12), rng.Intn(12)
			pairs = append(pairs, [2]int{a, b})
			vertices[a], vertices[b] = true, true
		}
		groups := Components(pairs)
		seen := map[int]int{}
		for _, g := range groups {
			for _, v := range g {
				seen[v]++
			}
		}
		if len(seen) != len(vertices) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModeRanked(t *testing.T) {
	if got := ModeRanked([]int64{2048, 1024, 2048, 4096, 2048}); got != 2048 {
		t.Errorf("ModeRanked = %d, want 2048", got)
	}
	// Frequency tie: best (earliest) rank wins.
	if got := ModeRanked([]int64{1024, 2048, 2048, 1024}); got != 1024 {
		t.Errorf("ModeRanked tie = %d, want 1024", got)
	}
	if got := ModeRanked(nil); got != 0 {
		t.Errorf("ModeRanked(nil) = %d, want 0", got)
	}
	if got := ModeRanked([]int64{7}); got != 7 {
		t.Errorf("ModeRanked single = %d, want 7", got)
	}
}

func TestGreedyMatching(t *testing.T) {
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 5}}
	m := GreedyMatching(pairs)
	want := [][2]int{{0, 1}, {2, 3}, {4, 5}}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("GreedyMatching = %v, want %v", m, want)
	}
}

func TestGreedyMatchingDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pairs [][2]int
		for i := 0; i < 30; i++ {
			pairs = append(pairs, [2]int{rng.Intn(16), rng.Intn(16)})
		}
		m := GreedyMatching(pairs)
		used := map[int]bool{}
		for _, p := range m {
			if p[0] == p[1] || used[p[0]] || used[p[1]] {
				return false
			}
			used[p[0]], used[p[1]] = true, true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
