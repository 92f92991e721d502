package memsys

import (
	"maps"
	"math"
	"slices"
	"testing"

	"servet/internal/topology"
)

// TestLookupCostTable: on every topology.Models machine, and on a
// nehalem2s with fractional latencies and a 16-entry TLB, where the
// order of the additions shows in the bits, the lookup-cost table
// holds what Access charges. For a constructed hit at each level h,
// costs[t][h+1] equals Access's cost, and for a miss everywhere
// costs[t][levels+1] does, with t 0 after a TLB hit and, when the
// machine models a TLB, t 1 after a TLB miss. Both also equal the
// cost summed term by term: the TLB penalty, the latencies of levels
// 0..h, the memory latency after a miss.
func TestLookupCostTable(t *testing.T) {
	fractional := topology.Nehalem2S()
	fractional.TLBEntries, fractional.TLBMissCycles = 16, 0.1
	for i, lat := range []float64{0.2, 0.3, 0.7} {
		fractional.Caches[i].LatencyCycles = lat
	}
	fractional.Memory.LatencyCycles = 1.1
	machines := topology.Models(2)
	machines["nehalem2s, fractional"] = fractional
	for _, name := range slices.Sorted(maps.Keys(machines)) {
		m := machines[name]
		in := NewInstanceAt(m, 1)
		sp := in.NewSpace()
		vaddr := sp.Alloc(m.PageBytes).Base
		plan := in.planFor(0)
		levels := len(plan)
		in.Access(0, sp, vaddr)
		tlbs := []bool{false}
		if in.tlbs[0] != nil {
			tlbs = append(tlbs, true)
		}
		for _, tlbMiss := range tlbs {
			for h := 0; h <= levels; h++ {
				// Every level holds the line and the TLB its page. Empty
				// the levels above h, and the TLB for a TLB miss.
				for _, pl := range plan[:h] {
					pl.c.reset()
				}
				row := 0
				want := 0.0
				if tlbMiss {
					in.tlbs[0].reset()
					row = 1
					want += m.TLBMissCycles
				}
				for j := 0; j <= h && j < levels; j++ {
					want += m.Caches[j].LatencyCycles
				}
				if h == levels {
					want += m.Memory.LatencyCycles
				}
				got := in.Access(0, sp, vaddr)
				table := in.costs[row][h+1]
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(table) != math.Float64bits(want) {
					t.Errorf("%s, TLB miss %v, hit at level %d of %d: Access %v, costs[%d][%d] %v, summed %v",
						name, tlbMiss, h, levels, got, row, h+1, table, want)
				}
			}
		}
	}
}
