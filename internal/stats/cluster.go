package stats

import "sort"

// Cluster is the first-match "similar value" grouping of the
// benchmarks of Figs. 6 and 7 of the paper: items 0..n-1 are examined
// in order, and each joins the first existing class whose founding
// item it is similar to; otherwise it founds a new class. similar(i,
// rep) compares item i with the founding item rep of an existing
// class.
//
// The returned assignment maps each item to its class id; reps holds
// each class's founding item in creation order.
func Cluster(n int, similar func(i, rep int) bool) (assignment, reps []int) {
	assignment = make([]int, n)
	for i := range assignment {
		found := -1
		for c, rep := range reps {
			if similar(i, rep) {
				found = c
				break
			}
		}
		if found < 0 {
			found = len(reps)
			reps = append(reps, i)
		}
		assignment[i] = found
	}
	return assignment, reps
}

// Similar reports whether two positive values are within relTol
// relative distance of each other (symmetric: measured against the
// larger magnitude).
func Similar(a, b, relTol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m <= 0 {
		return d == 0
	}
	return d/m <= relTol
}

// Components computes the connected components of the undirected graph
// whose edges are the given core pairs, as the paper does to turn the
// pair lists Pm[i] / Pl[i] into core groups (e.g. pairs
// (0,1),(0,2),(3,4),(3,5) yield groups {0,1,2} and {3,4,5}).
// Each component is sorted ascending; components are ordered by their
// smallest member.
func Components(pairs [][2]int) [][]int {
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, p := range pairs {
		union(p[0], p[1])
	}
	// Walk the vertices in sorted order (the collect-then-sort idiom):
	// each group then accumulates its members ascending, and since
	// union keeps the smallest vertex as root, roots — and hence the
	// groups — surface ordered by smallest member by construction.
	vertices := make([]int, 0, len(parent))
	for x := range parent {
		vertices = append(vertices, x)
	}
	sort.Ints(vertices)
	groups := map[int][]int{}
	var roots []int
	for _, x := range vertices {
		r := find(x)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], x)
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// ModeRanked returns the most frequent value among xs, where xs is
// ordered from best to worst rank (the probabilistic cache-size
// estimator passes the candidate sizes of the five lowest-divergence
// entries). Frequency ties resolve to the value whose best occurrence
// has the lowest rank, matching "the statistical mode of CS using the
// five elements of div with the lowest values" with a deterministic
// tie-break.
func ModeRanked(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	count := map[int64]int{}
	firstRank := map[int64]int{}
	for i, v := range xs {
		count[v]++
		if _, ok := firstRank[v]; !ok {
			firstRank[v] = i
		}
	}
	best := xs[0]
	for v := range count {
		if count[v] > count[best] ||
			(count[v] == count[best] && firstRank[v] < firstRank[best]) {
			best = v
		}
	}
	return best
}

// GreedyMatching returns a maximal set of vertex-disjoint pairs chosen
// greedily in input order. The communication-scalability benchmark uses
// it to select, within a layer, pairs that can all communicate
// concurrently without sharing endpoints.
func GreedyMatching(pairs [][2]int) [][2]int {
	used := map[int]bool{}
	var out [][2]int
	for _, p := range pairs {
		if p[0] == p[1] || used[p[0]] || used[p[1]] {
			continue
		}
		used[p[0]], used[p[1]] = true, true
		out = append(out, p)
	}
	return out
}
