package core

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"servet/internal/mpisim"
	"servet/internal/topology"
)

// fastComm keeps the pairwise sweeps cheap in tests.
func fastComm() Options {
	return Options{
		Seed: 1, CommReps: 2,
		BWSizes: []int64{4 * topology.KB, 64 * topology.KB, 1 * topology.MB},
	}
}

// TestCommLayersDunnington reproduces Fig. 10(a): three intra-node
// layers ordered same-L2 < same-L3 < inter-processor, with the pair
// counts the topology dictates.
func TestCommLayersDunnington(t *testing.T) {
	if testing.Short() {
		t.Skip("276-pair sweep")
	}
	m := topology.Dunnington()
	res, probeNS, err := CommunicationCostsContext(context.Background(), m, 32*topology.KB, fastComm())
	if err != nil {
		t.Fatal(err)
	}
	if probeNS <= 0 {
		t.Error("probe accounting missing")
	}
	if len(res.Layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(res.Layers))
	}
	lat := map[string]float64{}
	pairs := map[string]int{}
	for _, l := range res.Layers {
		lat[l.Name] = l.LatencyUS
		pairs[l.Name] = len(l.Pairs)
	}
	if !(lat["same-L2"] < lat["same-L3"] && lat["same-L3"] < lat["inter-processor"]) {
		t.Errorf("latency ordering violated: %v", lat)
	}
	// 12 same-L2 pairs; per processor C(6,2)=15 minus 3 same-L2 -> 12,
	// x4 processors = 48 same-L3; rest 216.
	if pairs["same-L2"] != 12 || pairs["same-L3"] != 48 || pairs["inter-processor"] != 216 {
		t.Errorf("pair counts = %v, want 12/48/216", pairs)
	}
}

// TestCommLayersFinisTerrae reproduces Fig. 10(a) for Finis Terrae on
// two nodes: intra-node communications about two times faster than
// inter-node ones.
func TestCommLayersFinisTerrae(t *testing.T) {
	if testing.Short() {
		t.Skip("496-pair sweep")
	}
	m := topology.FinisTerrae(2)
	res, _, err := CommunicationCostsContext(context.Background(), m, 16*topology.KB, fastComm())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 2 {
		t.Fatalf("layers = %d, want 2 (SHM, IBV)", len(res.Layers))
	}
	var intra, inter float64
	for _, l := range res.Layers {
		switch l.Name {
		case "intra-node":
			intra = l.LatencyUS
		case "network":
			inter = l.LatencyUS
		}
	}
	if intra == 0 || inter == 0 {
		t.Fatalf("layers missing: %+v", res.Layers)
	}
	ratio := inter / intra
	if ratio < 1.5 || ratio > 3 {
		t.Errorf("inter/intra = %.2f, want ~2", ratio)
	}
	// Intra-node pairs: 2 nodes x C(16,2); inter: 16*16.
	for _, l := range res.Layers {
		switch l.Name {
		case "intra-node":
			if len(l.Pairs) != 240 {
				t.Errorf("intra pairs = %d, want 240", len(l.Pairs))
			}
		case "network":
			if len(l.Pairs) != 256 {
				t.Errorf("inter pairs = %d, want 256", len(l.Pairs))
			}
		}
	}
}

// TestCommScalability reproduces Fig. 10(b): the network layer
// degrades severalfold under concurrent messages, while a
// disjoint-cache layer stays flat.
func TestCommScalability(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps")
	}
	m := topology.FinisTerrae(2)
	res, _, err := CommunicationCostsContext(context.Background(), m, 16*topology.KB, fastComm())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Layers {
		if l.Name != "network" {
			continue
		}
		last := l.Scalability[len(l.Scalability)-1]
		if last.Messages < 16 {
			t.Errorf("network matching only reached %d messages", last.Messages)
		}
		if last.Slowdown < 3 {
			t.Errorf("network slowdown = %.1f, want moderate scalability (>3)", last.Slowdown)
		}
		for i := 1; i < len(l.Scalability); i++ {
			if l.Scalability[i].Slowdown+1e-9 < l.Scalability[i-1].Slowdown {
				t.Errorf("slowdown not monotone at %d messages", l.Scalability[i].Messages)
			}
		}
	}
}

// TestCommBandwidthSweep reproduces Fig. 10(c)/(d): bandwidth grows
// with message size toward the channel plateau.
func TestCommBandwidthSweep(t *testing.T) {
	m := topology.SMTQuad()
	res, _, err := CommunicationCostsContext(context.Background(), m, 32*topology.KB, fastComm())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Layers {
		if len(l.Bandwidth) != 3 {
			t.Fatalf("bandwidth points = %d", len(l.Bandwidth))
		}
		first, last := l.Bandwidth[0], l.Bandwidth[len(l.Bandwidth)-1]
		if last.GBs <= first.GBs {
			t.Errorf("layer %s: bandwidth does not grow with size (%.2f -> %.2f)",
				l.Name, first.GBs, last.GBs)
		}
		for _, bp := range l.Bandwidth {
			if bp.GBs <= 0 || bp.OneWayUS <= 0 {
				t.Errorf("layer %s: degenerate point %+v", l.Name, bp)
			}
		}
	}
}

func TestCommCostsRejectsBadMessage(t *testing.T) {
	m := topology.SMTQuad()
	if _, _, err := CommunicationCostsContext(context.Background(), m, 0, fastComm()); err == nil {
		t.Error("zero message size accepted")
	}
}

func TestScalCounts(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{0, nil}, // empty matching: no scalability points at all
		{1, []int{1}},
		{2, []int{1, 2}},
		{3, []int{1, 2, 3}},
		{4, []int{1, 2, 4}},
		{8, []int{1, 2, 4, 8}},
		{12, []int{1, 2, 4, 8, 12}},
	}
	for _, c := range cases {
		got := scalCounts(c.max)
		if len(got) != len(c.want) {
			t.Errorf("scalCounts(%d) = %v, want %v", c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("scalCounts(%d) = %v, want %v", c.max, got, c.want)
				break
			}
		}
	}
}

// TestSlowdownGuard: a degenerate layer whose single-message baseline
// is zero (or was never set) must not emit NaN/Inf into the report.
func TestSlowdownGuard(t *testing.T) {
	if got := slowdownVs(5, 0); got != 0 {
		t.Errorf("zero baseline: slowdown = %g, want 0", got)
	}
	if got := slowdownVs(0, 0); got != 0 {
		t.Errorf("all-zero point: slowdown = %g, want 0", got)
	}
	if got := slowdownVs(6, 3); got != 2 {
		t.Errorf("slowdown = %g, want 2", got)
	}
}

// TestCommCostsShardedGolden: the pair sweep and per-layer
// micro-benchmarks must produce a byte-identical result (including the
// order-sensitive simulated probe time) at Options.Parallelism 1, 2, 4
// and NumCPU on every machine model, with measurement noise enabled.
// The sweeps run at parallelism cheapSweep whatever the option says,
// so the option must change nothing.
func TestCommCostsShardedGolden(t *testing.T) {
	models := topology.Models(2)
	for name, m := range models {
		name, m := name, m
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "dunnington" || name == "finisterrae") {
				t.Skip("large pair sweep")
			}
			opt := fastComm()
			opt.NoiseSigma = 0.02
			assertShardedGolden(t, func(parallelism int) string {
				opt.Parallelism = parallelism
				res, probeNS, err := CommunicationCostsContext(context.Background(), m, 16*topology.KB, opt)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(struct {
					Res     interface{}
					ProbeNS float64
				}{res, probeNS})
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			})
		})
	}
}

// TestCommCostsCancelledContext: cancelling the context aborts the
// sharded sweep with context.Canceled.
func TestCommCostsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := CommunicationCostsContext(ctx, topology.SMTQuad(), 32*topology.KB, fastComm())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestCalibrateCoresMatchesSequential: the per-core mcalibrator
// fan-out returns, at any parallelism, exactly what sequential
// per-core McalibratorContext calls produce.
func TestCalibrateCoresMatchesSequential(t *testing.T) {
	m := topology.SMTQuad()
	opt := Options{Seed: 1, MaxCacheBytes: 128 * topology.KB, NoiseSigma: 0.02}
	var want []Calibration
	for c := 0; c < m.CoresPerNode; c++ {
		want = append(want, mcal(t, m, c, opt))
	}

	opt.Parallelism = 4
	par, err := NewSuite(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.CalibrateCores(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("calibrations = %d, want %d", len(got), len(want))
	}
	for c := range want {
		for i := range want[c].Cycles {
			if got[c].Cycles[i] != want[c].Cycles[i] {
				t.Fatalf("core %d size %d: parallel %g vs sequential %g",
					c, want[c].Sizes[i], got[c].Cycles[i], want[c].Cycles[i])
			}
		}
	}

	if _, err := par.CalibrateCores(context.Background(), 99); err == nil {
		t.Error("out-of-range core accepted")
	}
}

// TestCommRepresentativeStandsForLayer checks the paper's premise that
// one pair per layer suffices: another pair of the same layer must
// measure a similar latency.
func TestCommRepresentativeStandsForLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	m := topology.Dunnington()
	res, _, err := CommunicationCostsContext(context.Background(), m, 32*topology.KB, fastComm())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Layers {
		if len(l.Pairs) < 2 {
			continue
		}
		// The layer's pairs were clustered within tolerance of the
		// representative's latency by construction; spot-check the
		// classification is homogeneous.
		for _, p := range l.Pairs[:2] {
			if got := topologyChannel(m, p); got != l.Name {
				t.Errorf("pair %v in layer %s classifies as %s", p, l.Name, got)
			}
		}
	}
}

// topologyChannel is a tiny indirection so the test reads clearly.
func topologyChannel(m *topology.Machine, pair [2]int) string {
	return mpisim.ChannelNameBetween(m, pair[0], pair[1])
}

// TestMultiSizeLayerDetection builds a machine with two channels whose
// latencies coincide at the small probe size but diverge at larger
// sizes (different bandwidths). Single-size clustering merges them
// into one layer; probing at several representative sizes — the
// paper's suggestion — separates them.
func TestMultiSizeLayerDetection(t *testing.T) {
	m := topology.SMTQuad()
	// Tune the channels so a 4 KB message costs the same on both:
	// sw 0.30 + (lat + size/bw) equal at 4 KB, very different at 64 KB.
	m.Comm.Channels = []topology.ShmChannel{
		{Name: "same-L1", SharedCacheLevel: 1, LatencyUS: 0.30, BandwidthGBs: 3.5},
		{Name: "same-L2", SharedCacheLevel: 2, LatencyUS: 1.00, BandwidthGBs: 8.7},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	single, _, err := CommunicationCostsContext(context.Background(), m, 4*topology.KB, Options{
		Seed: 1, CommReps: 2, BWSizes: []int64{4 * topology.KB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Layers) != 1 {
		t.Fatalf("single-size probing found %d layers; the channels should alias at 4 KB", len(single.Layers))
	}

	multi, _, err := CommunicationCostsContext(context.Background(), m, 4*topology.KB, Options{
		Seed: 1, CommReps: 2,
		BWSizes:    []int64{4 * topology.KB},
		LayerSizes: []int64{4 * topology.KB, 64 * topology.KB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Layers) != 2 {
		t.Fatalf("multi-size probing found %d layers, want 2: %+v", len(multi.Layers), multi.Layers)
	}
	names := map[string]bool{}
	for _, l := range multi.Layers {
		names[l.Name] = true
	}
	if !names["same-L1"] || !names["same-L2"] {
		t.Errorf("layer classification = %v", names)
	}
}
