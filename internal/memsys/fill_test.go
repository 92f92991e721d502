package memsys

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"servet/internal/topology"
)

// endState is everything a traversal can change, in a form two twin
// instances compare by: the encoding and occupancy of every cache, and
// each core's TLB pages and prefetcher.
type endState struct {
	caches []uint32
	cores  string
}

// encodeCache appends an exact encoding of c's contents to dst: 0 if
// the backing array was never allocated; otherwise 1, then (length,
// set index, tags in MRU order) for every non-empty set, then 0. A
// set's length is never 0, so the encoding parses unambiguously and
// two states encode alike only when they are equal.
func encodeCache(dst []uint32, c *cache) []uint32 {
	if c.lines == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	for idx, n := range c.lens {
		if n != 0 {
			base := int64(idx) * c.assoc
			dst = append(dst, uint32(n), uint32(idx))
			dst = append(dst, c.lines[base:base+int64(n)]...)
		}
	}
	return append(dst, 0)
}

func stateOf(in *Instance) endState {
	return stateExcept(in, func(int, int) bool { return false })
}

// stateExcept is stateOf leaving out the caches in.caches[li][k] for
// which skip(li, k) holds. Like any call that reads the caches, it
// first installs the instance's pending end state.
func stateExcept(in *Instance, skip func(li, k int) bool) endState {
	in.settle()
	var s endState
	for li, level := range in.caches {
		for k, c := range level {
			if skip(li, k) {
				continue
			}
			s.caches = encodeCache(s.caches, c)
			var occupied uint32
			if c.occupied {
				occupied = 1
			}
			s.caches = append(s.caches, occupied)
		}
	}
	for core := range in.pref {
		var vpages []int64
		if t := in.tlbs[core]; t != nil {
			vpages = t.vpages
		}
		s.cores += fmt.Sprint(vpages, *in.pref[core], ";")
	}
	return s
}

// fillCase is one warm-up traversal on a fresh instance: a strided
// walk of an array on core 0, after an optional access by another
// core.
type fillCase struct {
	name   string
	m      *topology.Machine
	bytes  int64
	stride int64
	// touch, when touched is set, is the core that accesses the array's
	// first byte before the walk.
	touch    int
	touched  bool
	wantFill bool
}

// warmUp runs the case's warm-up on a fresh instance, filled when the
// instance allows it or simulated when fill is false, and returns the
// total, how many accesses were filled and the end state.
func (tc *fillCase) warmUp(fill bool) (total float64, filled int64, s endState) {
	in := NewInstanceAt(tc.m, 3)
	sp := in.NewSpace()
	a := sp.Alloc(tc.bytes)
	w := walk{sp: sp, base: a.Base, bytes: a.Bytes, stride: tc.stride}
	if tc.touched {
		in.Access(tc.touch, sp, a.Base)
	}
	// A fractional starting total makes every sum round, so only costs
	// added one at a time in issue order can match.
	total = 0.1
	if fill {
		var measured float64
		filled = in.replayPasses(0, w, 0, &total, &measured).Filled
	} else {
		in.traverse(0, &w, &total, nil)
	}
	return total, filled, stateOf(in)
}

// TestWarmupFillMatchesSimulated: on a fresh instance of every machine
// model, and of one with fractional costs and a TLB, a probe-stride
// warm-up is filled, and equals simulating it bit for bit: the total
// and the end state of every cache, TLB and prefetcher. Walks the fill
// cannot prove all-miss decline and still match: a stride the
// prefetcher follows, a stride below a line, and a walk after another
// core touched a cache on the plan.
func TestWarmupFillMatchesSimulated(t *testing.T) {
	var cases []fillCase
	models := fillModels()
	for _, name := range slices.Sorted(maps.Keys(models)) {
		m := models[name]
		for _, bytes := range []int64{16 * topology.KB, 384 * topology.KB, 3 * topology.MB} {
			cases = append(cases, fillCase{
				name: fmt.Sprintf("%s/%d", name, bytes),
				m:    m, bytes: bytes, stride: 1024, wantFill: true,
			})
		}
	}
	nehalem := topology.Nehalem2S()
	cases = append(cases,
		fillCase{name: "prefetched stride", m: nehalem, bytes: 64 * topology.KB, stride: 512},
		fillCase{name: "sub-line stride", m: nehalem, bytes: 64 * topology.KB, stride: 32},
		fillCase{name: "shared L3 touched", m: nehalem, bytes: 64 * topology.KB, stride: 1024, touch: 1, touched: true},
		fillCase{name: "other socket touched", m: nehalem, bytes: 64 * topology.KB, stride: 1024, touch: 4, touched: true, wantFill: true},
	)
	for _, tc := range cases {
		want, _, wantState := tc.warmUp(false)
		got, filled, gotState := tc.warmUp(true)
		var wantFilled int64
		if tc.wantFill {
			wantFilled = (tc.bytes + tc.stride - 1) / tc.stride
		}
		if filled != wantFilled {
			t.Errorf("%s: filled %d accesses, want %d", tc.name, filled, wantFilled)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: total %v, simulated %v", tc.name, got, want)
		}
		if !slices.Equal(gotState.caches, wantState.caches) {
			t.Errorf("%s: cache contents differ from simulation", tc.name)
		}
		if gotState.cores != wantState.cores {
			t.Errorf("%s: TLB or prefetcher state\n%s\nsimulated\n%s", tc.name, gotState.cores, wantState.cores)
		}
	}
}
