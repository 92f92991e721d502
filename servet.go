// Package servet is a Go reproduction of Servet, the benchmark suite
// for autotuning on multicore clusters by González-Domínguez et al.
// (IPDPS 2010).
//
// Servet detects, by measurement alone, the hardware parameters that
// autotuned parallel codes need: the cache hierarchy (sizes of every
// level and which cores share each cache), the bottlenecks and
// scalability of concurrent memory accesses, and the communication
// layers of the cluster with their latency, bandwidth and scalability.
//
// Because native Go cannot probe hardware deterministically (no cycle
// counters, garbage-collector interference, no MPI runtime), this
// reproduction runs the unchanged detection algorithms against a
// deterministic simulated multicore cluster: set-associative caches
// with virtual/physical indexing and OS page placement, hierarchical
// memory-bandwidth domains, and an MPI-like message-passing runtime
// with eager/rendezvous protocols over simulated shared memory and
// network links. Predefined machine models mirror the four systems of
// the paper's evaluation.
//
// Typical use:
//
//	m := servet.Dunnington()
//	s, err := servet.NewSession(m, servet.WithCache(servet.NewFileCache("servet.json")))
//	...
//	rep, err := s.Run(ctx) // re-runs execute only stale probes
//	tile, _ := servet.TileSize(rep, 1, 8, 3, 0.5)
//
// The session's cache file is the paper's install-time parameter
// file: written once, consulted by applications, and — because every
// report carries the machine fingerprint and per-probe provenance —
// reusable as an incremental cache on later runs.
package servet

import (
	"time"

	"servet/internal/autotune"
	"servet/internal/core"
	"servet/internal/memsys"
	"servet/internal/mpisim"
	"servet/internal/report"
	"servet/internal/topology"
)

// Machine describes a (simulated) multicore cluster: cache levels with
// sharing groups, memory bandwidth domains, network and MPI software
// parameters. Build custom machines by filling the struct, or use the
// predefined models below.
type Machine = topology.Machine

// Options tunes the suite; the zero value uses the paper's defaults
// (1 KB stride, ratio threshold 2, 10% similarity clustering, ...).
type Options = core.Options

// Report is the suite's output: the install-time parameter file the
// paper describes, with JSON Save/Load and a human-readable Summary.
// Reports carry a schema version, the machine fingerprint, and
// per-probe provenance records, so a saved report doubles as an
// incremental probe cache (see Session and FileCache).
type Report = report.Report

// ProbeProvenance records where one probe's report section came from
// (measured this run or restored from a cache), under which options
// digest, and when it was measured.
type ProbeProvenance = report.ProbeProvenance

// Provenance statuses.
const (
	// ProvenanceRan marks a report section measured by its run.
	ProvenanceRan = report.ProvenanceRan
	// ProvenanceCached marks a section restored from a probe cache.
	ProvenanceCached = report.ProvenanceCached
)

// SchemaError is returned by LoadReport for files with a missing or
// unknown schema version.
type SchemaError = report.SchemaError

// Result component types of a Report.
type (
	// CacheResult is one detected cache level.
	CacheResult = report.CacheResult
	// MemoryResult characterizes concurrent memory-access overheads.
	MemoryResult = report.MemoryResult
	// OverheadLevel is one distinct memory-overhead magnitude.
	OverheadLevel = report.OverheadLevel
	// CommResult characterizes the communication layers.
	CommResult = report.CommResult
	// CommLayer is one set of core pairs with similar communication
	// cost.
	CommLayer = report.CommLayer
	// StageTiming is one row of the Table I timing report.
	StageTiming = report.StageTiming
	// TLBResult is the optional TLB extension probe's report entry.
	TLBResult = report.TLBResult
)

// DetectedCache is one cache level found by the detection driver.
type DetectedCache = core.DetectedCache

// Calibration is the raw mcalibrator output (sizes and cycles).
type Calibration = core.Calibration

// Predefined machine models (Section IV of the paper).
var (
	// Dunnington is the 4x Xeon E7450 hexacore node (24 cores; 32 KB
	// private L1, 3 MB L2 shared by core pairs {i, i+12}, 12 MB L3
	// shared per processor).
	Dunnington = topology.Dunnington
	// FinisTerrae builds an HP RX7640 cluster (16 Itanium2 cores per
	// node in two cells, private caches, buses shared by processor
	// pairs, 20 Gbps InfiniBand between nodes).
	FinisTerrae = topology.FinisTerrae
	// Dempsey is the Xeon 5060 dual-core (16 KB L1, 2 MB L2).
	Dempsey = topology.Dempsey
	// Athlon3200 is the unicore AMD Athlon (64 KB L1, 512 KB L2).
	Athlon3200 = topology.Athlon3200
	// ColoredSMP is a synthetic machine whose OS applies page coloring.
	ColoredSMP = topology.ColoredSMP
	// SMTQuad is a synthetic machine with L1 caches shared by thread
	// pairs.
	SMTQuad = topology.SMTQuad
	// Models returns all predefined models by name.
	Models = topology.Models
	// Model builds one predefined model by name.
	Model = topology.Model
)

// Probe registry introspection and engine error types.
var (
	// ProbeNames lists every probe of the registry in canonical order.
	ProbeNames = core.ProbeNames
	// DefaultProbes lists the four paper benchmarks Session.Run
	// executes when no probe is named.
	DefaultProbes = core.DefaultProbes
)

// Engine error types: a failed probe surfaces as a *ProbeError whose
// Unwrap yields the cause (e.g. *NoCacheLevelsError when a machine
// shows no detectable cache levels).
type (
	ProbeError         = core.ProbeError
	NoCacheLevelsError = core.NoCacheLevelsError
	UnknownProbeError  = core.UnknownProbeError
)

// LoadReport reads a report saved by Report.Save.
func LoadReport(path string) (*Report, error) { return report.Load(path) }

// TLBBox is the synthetic machine model with a TLB, for the "tlb"
// probe.
var TLBBox = topology.TLBBox

// Nehalem2S is the synthetic two-socket NUMA model with per-socket L3
// caches and memory controllers.
var Nehalem2S = topology.Nehalem2S

// Autotuning helpers (Section V use cases).
var (
	// TileSize picks a square tile edge from a detected cache size.
	TileSize = autotune.TileSize
	// PlaceProcesses maps ranks to cores from the comm layers.
	PlaceProcesses = autotune.PlaceProcesses
	// PlacementCost scores a placement for comparison.
	PlacementCost = autotune.PlacementCost
	// BestConcurrency picks how many cores should access memory
	// concurrently.
	BestConcurrency = autotune.BestConcurrency
	// AggregationAdvice decides whether to gather small messages.
	AggregationAdvice = autotune.AggregationAdvice
	// LayerByName finds a communication layer in a report.
	LayerByName = autotune.LayerByName
	// PairLatencies flattens the comm layers into a pairwise table.
	PairLatencies = autotune.PairLatencies
	// ChooseBcast picks a broadcast algorithm from a layer's profile.
	ChooseBcast = autotune.ChooseBcast
)

// CollectiveChoice is the result of ChooseBcast.
type CollectiveChoice = autotune.CollectiveChoice

// Rank is a process of the simulated message-passing runtime; see
// RunApp.
type Rank = mpisim.Rank

// AnySource matches any sender in Rank.Recv.
const AnySource = mpisim.AnySource

// RunApp executes a message-passing application on the simulated
// cluster: nranks processes placed on the given global cores (nil =
// rank r on core r) run body concurrently in virtual time. It returns
// the simulated makespan. Use it to evaluate placements produced by
// PlaceProcesses (see examples/mapping).
func RunApp(m *Machine, nranks int, placement []int, body func(*Rank)) (time.Duration, error) {
	elapsed, err := mpisim.Run(m, nranks, placement, body)
	return time.Duration(elapsed), err
}

// MemorySimulator gives examples and applications access to the
// functional memory-system model, to evaluate access patterns (e.g.
// tiled vs naive traversals) under the machine's cache hierarchy.
type MemorySimulator struct {
	in *memsys.Instance
	sp *memsys.Space
}

// NewMemorySimulator builds the memory system of one node. The seed
// drives OS page placement.
func NewMemorySimulator(m *Machine, seed int64) (*MemorySimulator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	in := memsys.NewInstance(m, seed)
	return &MemorySimulator{in: in, sp: in.NewSpace()}, nil
}

// Alloc reserves a byte range and returns its base virtual address.
func (ms *MemorySimulator) Alloc(bytes int64) int64 {
	return ms.sp.Alloc(bytes).Base
}

// Access performs one load at addr by the given node-local core and
// returns its cost in cycles.
func (ms *MemorySimulator) Access(core int, addr int64) float64 {
	return ms.in.Access(core, ms.sp, addr)
}

// Reset empties the caches (page mappings persist).
func (ms *MemorySimulator) Reset() { ms.in.ResetCaches() }
