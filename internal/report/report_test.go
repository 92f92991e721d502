package report

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleReport() *Report {
	return &Report{
		Machine: "dunnington", ClockGHz: 2.4, Nodes: 1, CoresPerNode: 24,
		Caches: []CacheResult{
			{Level: 1, SizeBytes: 32 << 10, Method: "gradient"},
			{Level: 2, SizeBytes: 3 << 20, Method: "probabilistic",
				SharedGroups: [][]int{{0, 12}, {1, 13}}},
		},
		Memory: MemoryResult{
			RefBandwidthGBs: 4.0,
			Levels: []OverheadLevel{{
				BandwidthGBs: 2.6,
				Pairs:        [][2]int{{0, 1}},
				Groups:       [][]int{{0, 1}},
				Scalability:  []ScalPoint{{Cores: 1, PerCoreGBs: 4, AggregateGBs: 4}},
			}},
		},
		Comm: CommResult{
			MessageBytes: 32 << 10,
			Layers: []CommLayer{{
				Name: "same-L2", LatencyUS: 11.6,
				Pairs:          [][2]int{{0, 12}},
				Representative: [2]int{0, 12},
				Bandwidth:      []BWPoint{{Bytes: 1024, OneWayUS: 1, GBs: 1.0}},
				Scalability:    []CommScalPoint{{Messages: 1, MeanCompletionUS: 11.6, Slowdown: 1}},
			}},
		},
		TLB: &TLBResult{Entries: 64, MissCycles: 30},
		Timings: []StageTiming{
			{Stage: "cache-size", Wall: time.Second, SimulatedProbe: 2 * time.Second},
		},
		Fingerprint: "sha256:0011223344556677",
		Provenance: []ProbeProvenance{
			{Probe: "cache-size", Status: ProvenanceCached, OptionsDigest: "abcd",
				Timestamp: time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC),
				Wall:      250 * time.Millisecond},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "servet.json")
	r := sampleReport()
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != r.Machine || got.ClockGHz != r.ClockGHz {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Caches) != 2 || got.Caches[1].SharedGroups[0][1] != 12 {
		t.Errorf("caches mismatch: %+v", got.Caches)
	}
	if got.Comm.Layers[0].Name != "same-L2" {
		t.Errorf("comm mismatch: %+v", got.Comm)
	}
	if got.Timings[0].SimulatedProbe != 2*time.Second {
		t.Errorf("timings mismatch: %+v", got.Timings)
	}
	if got.Schema != CurrentSchema {
		t.Errorf("schema = %d, want %d", got.Schema, CurrentSchema)
	}
	if got.TLB == nil || got.TLB.Entries != 64 || got.TLB.MissCycles != 30 {
		t.Errorf("tlb mismatch: %+v", got.TLB)
	}
	if got.Fingerprint != r.Fingerprint {
		t.Errorf("fingerprint = %q, want %q", got.Fingerprint, r.Fingerprint)
	}
	p := got.ProvenanceFor("cache-size")
	if p == nil || p.Status != ProvenanceCached || p.OptionsDigest != "abcd" ||
		!p.Timestamp.Equal(r.Provenance[0].Timestamp) ||
		p.Wall != 250*time.Millisecond {
		t.Errorf("provenance mismatch: %+v", p)
	}
	if got.ProvenanceFor("no-such-probe") != nil {
		t.Error("phantom provenance entry")
	}
}

func TestLoadRejectsMissingSchema(t *testing.T) {
	// A pre-v2 file: valid JSON, no schema field.
	path := filepath.Join(t.TempDir(), "old.json")
	if err := writeFile(path, `{"machine": "dempsey", "clock_ghz": 3.2}`); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	var se *SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SchemaError", err)
	}
	if se.Schema != 0 || se.Path != path {
		t.Errorf("SchemaError = %+v", se)
	}
	if !strings.Contains(se.Error(), "missing schema") {
		t.Errorf("message: %s", se.Error())
	}
}

func TestLoadRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.json")
	if err := writeFile(path, `{"schema": 99, "machine": "dempsey"}`); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	var se *SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SchemaError", err)
	}
	if se.Schema != 99 {
		t.Errorf("SchemaError.Schema = %d", se.Schema)
	}
}

func TestClone(t *testing.T) {
	r := sampleReport()
	cp := r.Clone()
	cp.Caches[0].SizeBytes = 1
	cp.Provenance[0].Status = ProvenanceRan
	cp.TLB.Entries = 1
	cp.Caches[1].SharedGroups[0][1] = 99
	cp.Memory.Levels[0].Pairs[0][1] = 99
	cp.Memory.Levels[0].Scalability[0].Cores = 99
	cp.Comm.Layers[0].Pairs[0][1] = 99
	cp.Comm.Layers[0].Scalability[0].Messages = 99
	if r.Caches[0].SizeBytes == 1 || r.Provenance[0].Status == ProvenanceRan || r.TLB.Entries == 1 {
		t.Error("Clone shares memory with the original")
	}
	if r.Caches[1].SharedGroups[0][1] == 99 || r.Memory.Levels[0].Pairs[0][1] == 99 ||
		r.Memory.Levels[0].Scalability[0].Cores == 99 || r.Comm.Layers[0].Pairs[0][1] == 99 ||
		r.Comm.Layers[0].Scalability[0].Messages == 99 {
		t.Error("Clone shares nested slices with the original")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := (&Report{}).Save(bad); err != nil {
		t.Fatal(err)
	}
	// Corrupt it.
	if err := appendJunk(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("corrupt file accepted")
	}
}

func appendJunk(path string) error {
	return writeFileAppend(path, "{{{")
}

func TestCacheLevelLookup(t *testing.T) {
	r := sampleReport()
	if r.CacheLevel(2) == nil || r.CacheLevel(2).SizeBytes != 3<<20 {
		t.Error("CacheLevel(2) lookup failed")
	}
	if r.CacheLevel(5) != nil {
		t.Error("phantom level")
	}
}

func TestCacheResultPrivate(t *testing.T) {
	r := sampleReport()
	if !r.Caches[0].Private() {
		t.Error("L1 should be private")
	}
	if r.Caches[1].Private() {
		t.Error("L2 should be shared")
	}
}

func TestSummaryMentionsKeyFacts(t *testing.T) {
	s := sampleReport().Summary()
	for _, want := range []string{
		"dunnington", "32 KB", "3 MB", "{0,12}", "private",
		"4.00 GB/s", "same-L2", "cache-size", "Table I",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a    bb") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512 B",
		16 << 10:  "16 KB",
		3 << 20:   "3 MB",
		1536:      "1536 B", // not a clean KB multiple... 1536 = 1.5KB -> falls to B? 1536%1024 != 0 -> B
		12 << 20:  "12 MB",
		256 << 10: "256 KB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestChart(t *testing.T) {
	out := Chart("fig", []float64{1, 2, 3}, []float64{1, 4, 9}, 20, 5)
	if !strings.Contains(out, "fig") || !strings.Contains(out, "*") {
		t.Errorf("chart output:\n%s", out)
	}
	empty := Chart("none", nil, nil, 20, 5)
	if !strings.Contains(empty, "no data") {
		t.Errorf("empty chart: %q", empty)
	}
	flat := Chart("flat", []float64{1, 1}, []float64{2, 2}, 10, 3)
	if !strings.Contains(flat, "*") {
		t.Errorf("flat chart:\n%s", flat)
	}
}

// TestSaveConcurrentLoad: while one goroutine saves a 200-level report
// over and over at one path, every Load of that path from another
// goroutine reads the whole report: Save never exposes a partial file.
func TestSaveConcurrentLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "servet.json")
	r := sampleReport()
	for len(r.Memory.Levels) < 200 {
		r.Memory.Levels = append(r.Memory.Levels, r.Memory.Levels[0])
	}
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	saved := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				saved <- nil
				return
			default:
			}
			if err := r.Save(path); err != nil {
				<-stop
				saved <- err
				return
			}
		}
	}()
	const loads = 2000
	failed := 0
	var first error
	for range loads {
		got, err := Load(path)
		if err == nil && len(got.Memory.Levels) != len(r.Memory.Levels) {
			err = fmt.Errorf("loaded %d levels, want %d", len(got.Memory.Levels), len(r.Memory.Levels))
		}
		if err != nil {
			failed++
			first = cmp.Or(first, err)
		}
	}
	close(stop)
	if err := <-saved; err != nil {
		t.Fatalf("Save: %v", err)
	}
	if failed != 0 {
		t.Errorf("%d of %d loads failed during concurrent saves; first: %v", failed, loads, first)
	}
}
