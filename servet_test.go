package servet_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"servet"
	"servet/internal/obs"
)

// runSession runs the named probes (no names means the default suite)
// on a fresh session with the given options.
func runSession(t *testing.T, m *servet.Machine, opt servet.Options, probes ...string) (*servet.Report, error) {
	t.Helper()
	s, err := servet.NewSession(m, servet.WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(context.Background(), probes...)
}

func TestRunDempseyEndToEnd(t *testing.T) {
	rep, err := runSession(t, servet.Dempsey(), servet.Options{Seed: 1, CommReps: 2, BWSizes: []int64{4096, 65536}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheLevel(1).SizeBytes != 16<<10 || rep.CacheLevel(2).SizeBytes != 2<<20 {
		t.Errorf("cache sizes: %+v", rep.Caches)
	}

	// Save / Load round trip (the install-time file).
	path := filepath.Join(t.TempDir(), "servet.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := servet.LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Machine != "dempsey" {
		t.Errorf("reloaded machine = %q", back.Machine)
	}

	// Summary renders.
	if !strings.Contains(rep.Summary(), "dempsey") {
		t.Error("summary missing machine name")
	}

	// Autotune consumers accept the report.
	tile, err := servet.TileSize(rep, 1, 8, 2, 0.5)
	if err != nil || tile < 1 {
		t.Errorf("tile = %d, err %v", tile, err)
	}
}

// TestRunProbesCacheSizeOnly: the probe engine runs just the
// requested probe (it has no dependencies), leaving the rest of the
// report empty.
func TestRunProbesCacheSizeOnly(t *testing.T) {
	rep, err := runSession(t, servet.Dempsey(), servet.Options{Seed: 1}, "cache-size")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timings) != 1 || rep.Timings[0].Stage != "cache-size" {
		t.Fatalf("timings = %+v", rep.Timings)
	}
	if rep.CacheLevel(1).SizeBytes != 16<<10 {
		t.Errorf("caches = %+v", rep.Caches)
	}
	if len(rep.Comm.Layers) != 0 || len(rep.Memory.Levels) != 0 {
		t.Errorf("unrequested probes ran: %+v", rep)
	}
}

// TestRunProbesParallelFullSuite: a concurrent run of the full suite
// merges into the same report as a sequential one.
func TestRunProbesParallelFullSuite(t *testing.T) {
	opt := servet.Options{Seed: 1, CommReps: 2, BWSizes: []int64{4096, 65536}}
	seq, err := runSession(t, servet.Dempsey(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 4
	par, err := runSession(t, servet.Dempsey(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Timings) != 4 {
		t.Fatalf("timings = %+v", par.Timings)
	}
	if par.CacheLevel(1).SizeBytes != seq.CacheLevel(1).SizeBytes ||
		par.Comm.MessageBytes != seq.Comm.MessageBytes ||
		len(par.Memory.Levels) != len(seq.Memory.Levels) {
		t.Errorf("parallel report diverges:\nseq %+v\npar %+v", seq, par)
	}
}

func TestProbeRegistryFacade(t *testing.T) {
	names := servet.ProbeNames()
	if len(names) < 5 {
		t.Fatalf("probes = %v", names)
	}
	if _, err := runSession(t, servet.Dempsey(), servet.Options{Seed: 1}, "no-such-probe"); err == nil {
		t.Error("unknown probe accepted")
	}
}

func TestDetectCachesOnly(t *testing.T) {
	s, err := servet.NewSession(servet.Athlon3200(), servet.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	det, cal, err := s.DetectCaches(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(det) != 2 || det[0].SizeBytes != 64<<10 || det[1].SizeBytes != 512<<10 {
		t.Errorf("detected = %+v", det)
	}
	if len(cal.Sizes) == 0 || len(cal.Sizes) != len(cal.Cycles) {
		t.Errorf("calibration shape: %d sizes, %d cycles", len(cal.Sizes), len(cal.Cycles))
	}
}

// TestDetectCachesCancelledDuringRefinement: cancelling the context
// once the calibration grid is measured aborts the window refinement
// that follows with context.Canceled.
func TestDetectCachesCancelledDuringRefinement(t *testing.T) {
	s, err := servet.NewSession(servet.Dempsey(), servet.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	_, cal, err := s.DetectCaches(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New()
	base, cancel := context.WithCancel(obs.WithTracer(context.Background(), tr))
	defer cancel()
	ctx := &cancelAfterSweep{Context: base, tr: tr, measurements: int64(len(cal.Sizes)), cancel: cancel}
	if _, _, err := s.DetectCaches(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The whole grid was measured and nothing of the refinement was:
	// the cancellation landed between the two sweeps.
	if got := tr.Counter(obs.CounterSweepMeasurements); got != int64(len(cal.Sizes)) {
		t.Errorf("sweep measurements = %d, want the %d grid sizes only", got, len(cal.Sizes))
	}
}

// cancelAfterSweep cancels itself at the first context lookup made
// once the tracer has counted the given number of sweep measurements.
type cancelAfterSweep struct {
	context.Context
	tr           *obs.Tracer
	measurements int64
	cancel       context.CancelFunc
}

func (c *cancelAfterSweep) Value(key any) any {
	if c.tr.Counter(obs.CounterSweepMeasurements) >= c.measurements {
		c.cancel()
	}
	return c.Context.Value(key)
}

func TestMcalibratorFacade(t *testing.T) {
	s, err := servet.NewSession(servet.Dempsey(), servet.WithOptions(servet.Options{Seed: 1, MaxCacheBytes: 64 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	cals, err := s.CalibrateCores(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cals) != 1 || len(cals[0].Sizes) == 0 {
		t.Errorf("calibrations = %+v", cals)
	}
	if _, err := s.CalibrateCores(context.Background(), 2); err == nil {
		t.Error("core outside the node accepted")
	}
	bad := servet.Dempsey()
	bad.ClockGHz = 0
	if _, err := servet.NewSession(bad); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestFacadeValidatesMachines(t *testing.T) {
	bad := servet.Dempsey()
	bad.CoresPerNode = 0
	if _, err := servet.NewSession(bad, servet.WithOptions(servet.Options{})); err == nil {
		t.Error("NewSession accepted an invalid machine")
	}
	if _, err := servet.NewMemorySimulator(bad, 1); err == nil {
		t.Error("NewMemorySimulator accepted an invalid machine")
	}
}

func TestRunApp(t *testing.T) {
	m := servet.FinisTerrae(2)
	var delivered bool
	elapsed, err := servet.RunApp(m, 2, []int{0, 16}, func(r *servet.Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, 4096)
		} else {
			msg := r.Recv(servet.AnySource, 1)
			delivered = msg.Bytes == 4096
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Error("message not delivered")
	}
	if elapsed <= 0 {
		t.Error("no virtual time elapsed")
	}
}

func TestMemorySimulator(t *testing.T) {
	ms, err := servet.NewMemorySimulator(servet.Dempsey(), 1)
	if err != nil {
		t.Fatal(err)
	}
	base := ms.Alloc(8 << 10)
	cold := ms.Access(0, base)
	warm := ms.Access(0, base)
	if warm >= cold {
		t.Errorf("no caching: cold %g, warm %g", cold, warm)
	}
	ms.Reset()
	if again := ms.Access(0, base); again != cold {
		t.Errorf("reset did not cool the cache: %g vs %g", again, cold)
	}
}

func TestModelsExposed(t *testing.T) {
	models := servet.Models(2)
	for _, name := range []string{"dunnington", "finisterrae", "dempsey", "athlon3200"} {
		if models[name] == nil {
			t.Errorf("model %s missing", name)
		}
	}
}

func TestDetectTLBFacade(t *testing.T) {
	rep, err := runSession(t, servet.TLBBox(), servet.Options{Seed: 1}, "tlb")
	if err != nil {
		t.Fatal(err)
	}
	if rep.TLB == nil || rep.TLB.Entries != 64 {
		t.Errorf("TLB = %+v, want 64 entries", rep.TLB)
	}
	if len(rep.Timings) != 1 || rep.Timings[0].Stage != "tlb" || rep.Timings[0].SimulatedProbe <= 0 {
		t.Errorf("timings = %+v, want one costed tlb row", rep.Timings)
	}
	rep, err = runSession(t, servet.Dempsey(), servet.Options{Seed: 1}, "tlb")
	if err != nil {
		t.Fatal(err)
	}
	if rep.TLB != nil {
		t.Errorf("phantom TLB on Dempsey: %+v", rep.TLB)
	}
}

func TestChooseBcastFacade(t *testing.T) {
	layer := &servet.CommLayer{LatencyUS: 10}
	choice, err := servet.ChooseBcast(layer, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Algorithm == "" || choice.TreeUS <= 0 {
		t.Errorf("choice = %+v", choice)
	}
}

func TestNehalemModelExposed(t *testing.T) {
	m := servet.Nehalem2S()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.TotalCores() != 8 {
		t.Errorf("cores = %d", m.TotalCores())
	}
}
