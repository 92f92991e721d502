// Package report defines the result schema the Servet suite produces,
// its on-disk JSON form, and text renderings. The paper stores the
// suite's output in a file written once at installation time and
// consulted by applications to guide optimizations (Section IV-E);
// Report.Save / Load implement that file.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// CurrentSchema is the version of the on-disk report format this
// package writes. Version 2 introduced the schema field itself, the
// machine fingerprint and the per-probe provenance records; files
// from before version 2 carry no schema field and are rejected by
// Load with a *SchemaError.
const CurrentSchema = 2

// Provenance statuses of one probe's report section.
const (
	// ProvenanceRan marks a section measured by this run.
	ProvenanceRan = "ran"
	// ProvenanceCached marks a section restored from a prior run via a
	// probe-result cache.
	ProvenanceCached = "cached"
)

// Report is the full output of a Servet run on one machine.
type Report struct {
	// Schema is the on-disk format version (CurrentSchema when written
	// by this package).
	Schema int `json:"schema"`
	// Machine is the model name the suite ran on.
	Machine string `json:"machine"`
	// Fingerprint is the stable identity hash of the machine model the
	// results describe (topology.Machine.Fingerprint). Caches use it to
	// decide whether this report's results apply to a machine at hand.
	Fingerprint string `json:"fingerprint,omitempty"`
	// ClockGHz is the machine's clock rate.
	ClockGHz float64 `json:"clock_ghz"`
	// Nodes and CoresPerNode describe the cluster shape.
	Nodes        int `json:"nodes"`
	CoresPerNode int `json:"cores_per_node"`
	// Caches lists the detected cache levels, L1 first.
	Caches []CacheResult `json:"caches"`
	// Memory characterizes concurrent memory-access overheads.
	Memory MemoryResult `json:"memory"`
	// Comm characterizes the communication layers.
	Comm CommResult `json:"comm"`
	// TLB is the result of the optional TLB extension probe; nil when
	// the probe did not run or detected no TLB.
	TLB *TLBResult `json:"tlb,omitempty"`
	// Timings records the execution time of each benchmark stage
	// (Table I of the paper).
	Timings []StageTiming `json:"timings"`
	// Provenance records, per probe of the run, whether its section was
	// measured or restored from a cache, under which options, and when
	// it was measured. Entries follow the canonical probe order.
	Provenance []ProbeProvenance `json:"provenance,omitempty"`
}

// ProbeProvenance describes where one probe's report section came
// from.
type ProbeProvenance struct {
	// Probe is the probe's registry name ("cache-size", ...).
	Probe string `json:"probe"`
	// Status is ProvenanceRan or ProvenanceCached.
	Status string `json:"status"`
	// OptionsDigest is the digest of the effective option fields the
	// probe's measurements depend on; a cache invalidates the section
	// when the digest no longer matches.
	OptionsDigest string `json:"options_digest"`
	// Timestamp is when the section was measured (preserved across
	// cache restores: a cached section keeps its measurement time).
	Timestamp time.Time `json:"timestamp"`
	// Wall is the host wall-clock time the probe's measurement took.
	// Like Timestamp it is preserved across cache restores — a cached
	// section reports the cost of the run that measured it — so users
	// can see which probes intra-probe sharding actually sped up.
	Wall time.Duration `json:"wall_ns"`
}

// CacheResult describes one detected cache level.
type CacheResult struct {
	// Level is 1 for L1.
	Level int `json:"level"`
	// SizeBytes is the detected capacity.
	SizeBytes int64 `json:"size_bytes"`
	// Method is "gradient" when the size came straight from a gradient
	// peak (virtually indexed or page-colored caches) or
	// "probabilistic" when the binomial estimator was needed.
	Method string `json:"method"`
	// SharedGroups lists the groups of node-local cores detected to
	// share one instance of this cache. Empty means the cache is
	// private to each core.
	SharedGroups [][]int `json:"shared_groups,omitempty"`
}

// Private reports whether no sharing was detected at this level.
func (c CacheResult) Private() bool { return len(c.SharedGroups) == 0 }

// MemoryResult is the output of the memory-access overhead benchmark.
type MemoryResult struct {
	// RefBandwidthGBs is the bandwidth of one isolated core.
	RefBandwidthGBs float64 `json:"ref_bandwidth_gbs"`
	// Levels are the distinct overhead magnitudes found, strongest
	// degradation first is NOT guaranteed: levels appear in discovery
	// order, as in the paper's algorithm.
	Levels []OverheadLevel `json:"levels"`
}

// OverheadLevel is one distinct degraded-bandwidth magnitude and the
// core pairs that exhibit it.
type OverheadLevel struct {
	// BandwidthGBs is the per-core bandwidth the colliding pairs get.
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	// Pairs are the node-local core pairs with this overhead.
	Pairs [][2]int `json:"pairs"`
	// Groups are the connected components of Pairs: sets of cores that
	// collide with each other.
	Groups [][]int `json:"groups"`
	// Scalability is the effective bandwidth as cores of one group are
	// activated one by one (Fig. 9(b)).
	Scalability []ScalPoint `json:"scalability"`
}

// ScalPoint is one point of a memory-scalability curve.
type ScalPoint struct {
	// Cores is the number of concurrently accessing cores.
	Cores int `json:"cores"`
	// PerCoreGBs is the bandwidth each of them obtains.
	PerCoreGBs float64 `json:"per_core_gbs"`
	// AggregateGBs is the total delivered bandwidth.
	AggregateGBs float64 `json:"aggregate_gbs"`
}

// CommResult is the output of the communication-cost benchmark.
type CommResult struct {
	// MessageBytes is the probe message size (the detected L1 size).
	MessageBytes int64 `json:"message_bytes"`
	// Layers are the communication layers, in discovery order.
	Layers []CommLayer `json:"layers"`
}

// CommLayer is a set of core pairs with similar communication cost.
type CommLayer struct {
	// Name is the transport classification of the representative pair
	// ("same-L2", "intra-node", "network", ...).
	Name string `json:"name"`
	// LatencyUS is the one-way latency of the probe message.
	LatencyUS float64 `json:"latency_us"`
	// Pairs are the global core pairs in this layer.
	Pairs [][2]int `json:"pairs"`
	// Representative is the pair whose micro-benchmarks stand for the
	// whole layer.
	Representative [2]int `json:"representative"`
	// Bandwidth is the point-to-point bandwidth sweep of the
	// representative pair (Fig. 10(c)/(d)).
	Bandwidth []BWPoint `json:"bandwidth"`
	// Scalability is the concurrent-message slowdown curve
	// (Fig. 10(b)).
	Scalability []CommScalPoint `json:"scalability"`
}

// BWPoint is one point of a point-to-point bandwidth sweep.
type BWPoint struct {
	// Bytes is the message size.
	Bytes int64 `json:"bytes"`
	// OneWayUS is the measured one-way latency.
	OneWayUS float64 `json:"one_way_us"`
	// GBs is Bytes/OneWay.
	GBs float64 `json:"gbs"`
}

// CommScalPoint is one point of a communication-scalability curve.
type CommScalPoint struct {
	// Messages is the number of concurrent messages.
	Messages int `json:"messages"`
	// MeanCompletionUS is the mean message completion time.
	MeanCompletionUS float64 `json:"mean_completion_us"`
	// Slowdown is MeanCompletion relative to a single message.
	Slowdown float64 `json:"slowdown"`
}

// TLBResult is the output of the TLB extension probe.
type TLBResult struct {
	// Entries is the detected number of TLB entries.
	Entries int `json:"entries"`
	// MissCycles is the measured translation-miss penalty.
	MissCycles float64 `json:"miss_cycles"`
}

// StageTiming records how long one benchmark stage took (Table I).
type StageTiming struct {
	// Stage names the benchmark ("cache-size", "shared-caches",
	// "memory-overhead", "communication-costs").
	Stage string `json:"stage"`
	// Wall is the host time the simulated benchmark needed.
	Wall time.Duration `json:"wall_ns"`
	// SimulatedProbe is the virtual time the probes consumed on the
	// simulated machine — the analogue of the minutes in Table I.
	SimulatedProbe time.Duration `json:"simulated_probe_ns"`
}

// ProvenanceFor returns the provenance record of the named probe, or
// nil when the report carries none for it.
func (r *Report) ProvenanceFor(probe string) *ProbeProvenance {
	for i := range r.Provenance {
		if r.Provenance[i].Probe == probe {
			return &r.Provenance[i]
		}
	}
	return nil
}

// Clone returns a deep copy of the report: the struct by value, then
// every slice it reaches (caches and their shared groups, overhead
// levels with their pairs, groups and scalability curves, comm layers
// with their pairs, bandwidth and scalability curves, timings,
// provenance) and the TLB result. Nil slices stay nil and empty ones
// stay empty, so the copy encodes to the same bytes as the original.
// A nil receiver yields a new empty report.
func (r *Report) Clone() *Report {
	if r == nil {
		return &Report{}
	}
	cp := *r
	cp.Caches = slices.Clone(r.Caches)
	for i := range cp.Caches {
		cp.Caches[i].SharedGroups = cloneGroups(cp.Caches[i].SharedGroups)
	}
	cp.Memory.Levels = slices.Clone(r.Memory.Levels)
	for i := range cp.Memory.Levels {
		l := &cp.Memory.Levels[i]
		l.Pairs = slices.Clone(l.Pairs)
		l.Groups = cloneGroups(l.Groups)
		l.Scalability = slices.Clone(l.Scalability)
	}
	cp.Comm.Layers = slices.Clone(r.Comm.Layers)
	for i := range cp.Comm.Layers {
		l := &cp.Comm.Layers[i]
		l.Pairs = slices.Clone(l.Pairs)
		l.Bandwidth = slices.Clone(l.Bandwidth)
		l.Scalability = slices.Clone(l.Scalability)
	}
	if r.TLB != nil {
		tlb := *r.TLB
		cp.TLB = &tlb
	}
	cp.Timings = slices.Clone(r.Timings)
	cp.Provenance = slices.Clone(r.Provenance)
	return &cp
}

// cloneGroups deep-copies a list of core groups.
func cloneGroups(gs [][]int) [][]int {
	gs = slices.Clone(gs)
	for i := range gs {
		gs[i] = slices.Clone(gs[i])
	}
	return gs
}

// CacheLevel returns the result for cache level n, or nil.
func (r *Report) CacheLevel(n int) *CacheResult {
	for i := range r.Caches {
		if r.Caches[i].Level == n {
			return &r.Caches[i]
		}
	}
	return nil
}

// SchemaError reports a file whose schema version this package does
// not understand: a version newer than CurrentSchema, or a missing
// version (files from before the schema field). Loading such a file
// as a zero-filled current-schema report would silently drop or
// invent fields, so Load refuses instead.
type SchemaError struct {
	// Path is the file that was rejected.
	Path string
	// Schema is the version found; 0 means the field was missing.
	Schema int
}

func (e *SchemaError) Error() string {
	if e.Schema == 0 {
		return fmt.Sprintf("report: %s: missing schema version (pre-v%d file; re-run the suite to regenerate it)", e.Path, CurrentSchema)
	}
	return fmt.Sprintf("report: %s: unknown schema version %d (this build understands v%d)", e.Path, e.Schema, CurrentSchema)
}

// Save writes the report as indented JSON, the install-time file the
// paper describes, stamping the current schema version. The write is
// atomic: the bytes go to a temporary file in path's directory, which
// is renamed over path, so a concurrent Load reads the old file or the
// new one, never a partial one. The file's mode is 0644: reports are
// parameter files other users' autotuners read.
func (r *Report) Save(path string) error {
	data, err := r.encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644) // CreateTemp makes it 0600
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// encode renders the bytes Save writes.
func (r *Report) encode() ([]byte, error) {
	cp := *r
	cp.Schema = CurrentSchema
	data, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: marshal: %w", err)
	}
	return append(data, '\n'), nil
}

// Load reads a report previously written by Save. Files with a
// missing or unknown schema version are rejected with a *SchemaError.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return parse(data, path)
}

// parse decodes the bytes of a report file; path names the file in
// errors. Every cached report enters through here.
func parse(data []byte, path string) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report: parse %s: %w", path, err)
	}
	if r.Schema != CurrentSchema {
		return nil, &SchemaError{Path: path, Schema: r.Schema}
	}
	return &r, nil
}
