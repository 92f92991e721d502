package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"servet/internal/autotune"
	"servet/internal/memsys"
	"servet/internal/mpisim"
	"servet/internal/report"
	"servet/internal/topology"
)

// Objective scores a configuration against a report; lower is
// better. Eval must be a pure function of (report, config) — the
// engine evaluates configurations concurrently and caches scores by
// configuration — and must honor ctx between expensive steps.
type Objective interface {
	// Name is the objective's registry name.
	Name() string
	// Eval returns the configuration's score (lower is better).
	Eval(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error)
}

// scratchEvaluator is implemented by objectives whose evaluations can
// reuse expensive per-worker state — a pooled memory-system instance,
// reset in place per candidate. The engine builds one scratch per
// worker and routes evaluations through
// evalScratch; its scores must be bit-identical to Eval's (for pooled
// instances, ResetAt's bitwise-equivalence contract guarantees it),
// so results stay byte-identical at any parallelism whether or not
// the engine pools.
type scratchEvaluator interface {
	Objective
	// newScratch builds one worker's reusable state for the report.
	newScratch(r *report.Report) (any, error)
	// evalScratch is Eval against the pooled scratch.
	evalScratch(ctx context.Context, r *report.Report, sp *Space, cfg Config, scratch any) (float64, error)
}

// Func adapts a plain function into an Objective (for Go callers and
// tests; wire requests use the registry instead).
func Func(name string, fn func(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error)) Objective {
	return funcObjective{name: name, fn: fn}
}

type funcObjective struct {
	name string
	fn   func(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error)
}

func (o funcObjective) Name() string { return o.name }
func (o funcObjective) Eval(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error) {
	return o.fn(ctx, r, sp, cfg)
}

// ObjectiveSpec is the wire form of an objective: a registry name
// plus its JSON parameters. It is what POST /v1/tune requests carry
// and what NewObjective resolves.
type ObjectiveSpec struct {
	// Name is a registered objective name (ObjectiveNames).
	Name string `json:"name"`
	// Params is the objective's own parameter document.
	Params json.RawMessage `json:"params,omitempty"`
}

// objective registry. Like the probe registry of internal/core it is
// populated at init time and read-only afterwards; the mutex guards
// tests that register scratch objectives.
var (
	objMu       sync.RWMutex
	objBuilders = map[string]func(params json.RawMessage) (Objective, error){}
)

// RegisterObjective adds a named objective builder. Registering a
// duplicate name panics: names are the wire vocabulary.
func RegisterObjective(name string, build func(params json.RawMessage) (Objective, error)) {
	objMu.Lock()
	defer objMu.Unlock()
	if name == "" {
		panic("tune: objective with empty name")
	}
	if _, dup := objBuilders[name]; dup {
		panic(fmt.Sprintf("tune: duplicate objective %q", name))
	}
	objBuilders[name] = build
}

// NewObjective resolves a spec against the registry.
func NewObjective(spec ObjectiveSpec) (Objective, error) {
	objMu.RLock()
	build, ok := objBuilders[spec.Name]
	objMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("tune: unknown objective %q (have %v)", spec.Name, ObjectiveNames())
	}
	obj, err := build(spec.Params)
	if err != nil {
		return nil, fmt.Errorf("tune: objective %s: %w", spec.Name, err)
	}
	return obj, nil
}

// ObjectiveNames lists the registered objectives.
func ObjectiveNames() []string {
	objMu.RLock()
	defer objMu.RUnlock()
	names := make([]string, 0, len(objBuilders))
	for n := range objBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// machineFor rebuilds the machine model a report describes, for the
// simulated objectives (the report carries the model name and node
// count; predefined models are stable, so fingerprints match).
func machineFor(r *report.Report) (*topology.Machine, error) {
	nodes := r.Nodes
	if nodes < 1 {
		nodes = 1
	}
	m, ok := topology.Models(nodes)[r.Machine]
	if !ok {
		return nil, fmt.Errorf("tune: report machine %q is not a predefined model", r.Machine)
	}
	return m, nil
}

// layerFor finds the named communication layer, defaulting to the
// highest-latency one when name is empty.
func layerFor(r *report.Report, name string) (*report.CommLayer, error) {
	if name != "" {
		return autotune.LayerByName(r, name)
	}
	if len(r.Comm.Layers) == 0 {
		return nil, fmt.Errorf("tune: report has no communication layers")
	}
	worst := 0
	for i := range r.Comm.Layers {
		if r.Comm.Layers[i].LatencyUS > r.Comm.Layers[worst].LatencyUS {
			worst = i
		}
	}
	return &r.Comm.Layers[worst], nil
}

// Built-in objective names.
const (
	// ObjectiveBcastModel predicts a broadcast's makespan from the
	// report's latency/bandwidth profile (cost model; axis
	// "algorithm").
	ObjectiveBcastModel = "bcast-model"
	// ObjectiveBcastSim measures a broadcast on the simulated cluster
	// (mpisim; axes "algorithm" and optionally "placement").
	ObjectiveBcastSim = "bcast-sim"
	// ObjectiveAggregationModel predicts the completion of N small
	// messages as a function of the batch size (cost model; axis
	// "batch").
	ObjectiveAggregationModel = "aggregation-model"
	// ObjectiveTiledKernel measures a tiled matrix transpose on the
	// simulated memory system (memsys; axis "tile").
	ObjectiveTiledKernel = "tiled-kernel"
	// ObjectiveConcurrencyModel scores how many cores access memory
	// concurrently from the report's scalability curve (cost model;
	// axis "cores").
	ObjectiveConcurrencyModel = "concurrency-model"
)

func init() {
	RegisterObjective(ObjectiveBcastModel, newBcastModel)
	RegisterObjective(ObjectiveBcastSim, newBcastSim)
	RegisterObjective(ObjectiveAggregationModel, newAggregationModel)
	RegisterObjective(ObjectiveTiledKernel, newTiledKernel)
	RegisterObjective(ObjectiveConcurrencyModel, newConcurrencyModel)
}

// bcastModel predicts the makespan (µs) of broadcasting Bytes to
// Ranks over the named layer, for the algorithm the "algorithm" axis
// selects ("flat" or "binomial-tree") — the same cost model
// autotune.ChooseBcast evaluates in closed form, opened up so the
// algorithm choice can ride a search alongside other axes.
type bcastModel struct {
	Layer string `json:"layer,omitempty"`
	Ranks int    `json:"ranks"`
	Bytes int64  `json:"bytes"`
}

func newBcastModel(params json.RawMessage) (Objective, error) {
	o := &bcastModel{}
	if err := unmarshalParams(params, o); err != nil {
		return nil, err
	}
	if o.Ranks < 2 {
		return nil, fmt.Errorf("ranks must be >= 2, got %d", o.Ranks)
	}
	if o.Bytes <= 0 {
		return nil, fmt.Errorf("bytes must be positive, got %d", o.Bytes)
	}
	return o, nil
}

func (o *bcastModel) Name() string { return ObjectiveBcastModel }

func (o *bcastModel) Eval(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error) {
	layer, err := layerFor(r, o.Layer)
	if err != nil {
		return 0, err
	}
	choice, err := autotune.ChooseBcast(layer, o.Ranks, o.Bytes)
	if err != nil {
		return 0, err
	}
	algo, err := sp.Str(cfg, "algorithm")
	if err != nil {
		return 0, err
	}
	switch algo {
	case "flat":
		return choice.FlatUS, nil
	case "binomial-tree":
		return choice.TreeUS, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want flat or binomial-tree)", algo)
}

// bcastSim measures the same decision by running the broadcast on the
// simulated cluster: the "algorithm" axis selects the collective, the
// optional "placement" axis ("packed" or "spread") how ranks map onto
// nodes. Score is the virtual makespan in µs.
type bcastSim struct {
	Ranks int   `json:"ranks"`
	Bytes int64 `json:"bytes"`
}

func newBcastSim(params json.RawMessage) (Objective, error) {
	o := &bcastSim{}
	if err := unmarshalParams(params, o); err != nil {
		return nil, err
	}
	if o.Ranks < 2 {
		return nil, fmt.Errorf("ranks must be >= 2, got %d", o.Ranks)
	}
	if o.Bytes <= 0 {
		return nil, fmt.Errorf("bytes must be positive, got %d", o.Bytes)
	}
	return o, nil
}

func (o *bcastSim) Name() string { return ObjectiveBcastSim }

func (o *bcastSim) Eval(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error) {
	m, err := machineFor(r)
	if err != nil {
		return 0, err
	}
	if o.Ranks > m.TotalCores() {
		return 0, fmt.Errorf("%d ranks exceed %d cores", o.Ranks, m.TotalCores())
	}
	algo, err := sp.Str(cfg, "algorithm")
	if err != nil {
		return 0, err
	}
	flat := false
	switch algo {
	case "flat":
		flat = true
	case "binomial-tree":
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want flat or binomial-tree)", algo)
	}
	var placement []int
	if sp.AxisIndex("placement") >= 0 {
		mode, err := sp.Str(cfg, "placement")
		if err != nil {
			return 0, err
		}
		placement, err = placeRanks(m, o.Ranks, mode)
		if err != nil {
			return 0, err
		}
	}
	elapsed, err := mpisim.Run(m, o.Ranks, placement, func(rk *mpisim.Rank) {
		if flat {
			rk.BcastFlat(0, o.Bytes)
		} else {
			rk.Bcast(0, o.Bytes)
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(elapsed) / 1e3, nil
}

// placeRanks maps ranks onto global cores: "packed" fills node 0
// first, "spread" round-robins across nodes.
func placeRanks(m *topology.Machine, ranks int, mode string) ([]int, error) {
	out := make([]int, ranks)
	switch mode {
	case "packed":
		for i := range out {
			out[i] = i
		}
	case "spread":
		for i := range out {
			out[i] = m.GlobalCore(i%m.Nodes, i/m.Nodes)
		}
	default:
		return nil, fmt.Errorf("unknown placement %q (want packed or spread)", mode)
	}
	return out, nil
}

// aggregationModel predicts the completion time (µs) of sending
// Messages payloads of Bytes each over the layer, gathered into
// batches of the size the "batch" axis selects — the generalization
// of autotune.AggregationAdvice from "1 or N" to any batch size. The
// batch groups send concurrently; the score is the makespan of the
// last group under the layer's measured scalability.
type aggregationModel struct {
	Layer    string `json:"layer,omitempty"`
	Bytes    int64  `json:"bytes"`
	Messages int    `json:"messages"`
}

func newAggregationModel(params json.RawMessage) (Objective, error) {
	o := &aggregationModel{}
	if err := unmarshalParams(params, o); err != nil {
		return nil, err
	}
	if o.Messages < 1 {
		return nil, fmt.Errorf("messages must be >= 1, got %d", o.Messages)
	}
	if o.Bytes <= 0 {
		return nil, fmt.Errorf("bytes must be positive, got %d", o.Bytes)
	}
	return o, nil
}

func (o *aggregationModel) Name() string { return ObjectiveAggregationModel }

func (o *aggregationModel) Eval(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error) {
	layer, err := layerFor(r, o.Layer)
	if err != nil {
		return 0, err
	}
	batch, err := sp.Int(cfg, "batch")
	if err != nil {
		return 0, err
	}
	if batch < 1 {
		return 0, fmt.Errorf("batch must be >= 1, got %d", batch)
	}
	if batch > int64(o.Messages) {
		batch = int64(o.Messages)
	}
	groups := (int64(o.Messages) + batch - 1) / batch
	one := autotune.LatencyForSize(layer, batch*o.Bytes)
	if groups == 1 {
		return one, nil
	}
	// Mean completion of the concurrent groups, stretched to the
	// makespan of the last one (the 2n/(n+1) FIFO factor
	// AggregationAdvice documents).
	n := float64(groups)
	mean := one * autotune.SlowdownAt(layer, int(groups))
	return mean * 2 * n / (n + 1), nil
}

// tiledKernel measures a tiled matrix transpose (dst[i][j] =
// src[j][i], N×N elements of ElemBytes) on the simulated memory
// system of the report's machine, with the tile edge the "tile" axis
// selects. Score is cycles per element — the simulated counterpart of
// the closed-form autotune.TileSize answer, sensitive to effects the
// formula ignores (associativity conflicts, page placement, TLB).
type tiledKernel struct {
	N         int   `json:"n,omitempty"`
	ElemBytes int64 `json:"elem_bytes,omitempty"`
	Core      int   `json:"core,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
}

func newTiledKernel(params json.RawMessage) (Objective, error) {
	o := &tiledKernel{}
	if err := unmarshalParams(params, o); err != nil {
		return nil, err
	}
	if o.N == 0 {
		o.N = 256
	}
	if o.ElemBytes == 0 {
		o.ElemBytes = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.N < 1 || o.ElemBytes < 1 {
		return nil, fmt.Errorf("invalid kernel shape (n %d, elem_bytes %d)", o.N, o.ElemBytes)
	}
	return o, nil
}

func (o *tiledKernel) Name() string { return ObjectiveTiledKernel }

// tiledScratch is one tune worker's pooled kernel state: the machine
// model (resolved once instead of per evaluation) and a reusable
// memory-system instance.
type tiledScratch struct {
	m  *topology.Machine
	in *memsys.Instance
}

func (o *tiledKernel) newScratch(r *report.Report) (any, error) {
	m, err := machineFor(r)
	if err != nil {
		return nil, err
	}
	return &tiledScratch{m: m, in: memsys.NewInstance(m, o.Seed)}, nil
}

func (o *tiledKernel) evalScratch(ctx context.Context, r *report.Report, sp *Space, cfg Config, scratch any) (float64, error) {
	sc := scratch.(*tiledScratch)
	// ResetAt(o.Seed) is bitwise-equivalent to NewInstance(m, o.Seed):
	// a configuration's score never depends on what other
	// configurations were evaluated before (or concurrently with) it.
	sc.in.ResetAt(o.Seed)
	return o.run(ctx, sc.in, sp, cfg)
}

func (o *tiledKernel) Eval(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error) {
	m, err := machineFor(r)
	if err != nil {
		return 0, err
	}
	// Every evaluation builds its own instance from the same seed, so
	// scores match the pooled evalScratch path bit for bit.
	return o.run(ctx, memsys.NewInstance(m, o.Seed), sp, cfg)
}

func (o *tiledKernel) run(ctx context.Context, in *memsys.Instance, sp *Space, cfg Config) (float64, error) {
	tile64, err := sp.Int(cfg, "tile")
	if err != nil {
		return 0, err
	}
	if tile64 < 1 {
		return 0, fmt.Errorf("tile must be >= 1, got %d", tile64)
	}
	tile := int(tile64)
	n := o.N
	if tile > n {
		tile = n
	}
	spc := in.NewSpace()
	src := spc.Alloc(int64(n) * int64(n) * o.ElemBytes).Base
	dst := spc.Alloc(int64(n) * int64(n) * o.ElemBytes).Base
	total := 0.0
	for ti := 0; ti < n; ti += tile {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for tj := 0; tj < n; tj += tile {
			for i := ti; i < ti+tile && i < n; i++ {
				for j := tj; j < tj+tile && j < n; j++ {
					total += in.Access(o.Core, spc, src+int64(j*n+i)*o.ElemBytes)
					total += in.Access(o.Core, spc, dst+int64(i*n+j)*o.ElemBytes)
				}
			}
		}
	}
	return total / float64(n*n), nil
}

// concurrencyModel scores a concurrency cap from the report's
// memory-scalability curve: the negated aggregate bandwidth at the
// core count the "cores" axis selects (lower is better, so the best
// point is the highest aggregate bandwidth), with an optional
// efficiency floor disqualifying counts whose per-core share drops
// below MinEfficiency of the isolated-core bandwidth.
type concurrencyModel struct {
	Level         int     `json:"level,omitempty"`
	MinEfficiency float64 `json:"min_efficiency,omitempty"`
}

func newConcurrencyModel(params json.RawMessage) (Objective, error) {
	o := &concurrencyModel{}
	if err := unmarshalParams(params, o); err != nil {
		return nil, err
	}
	return o, nil
}

func (o *concurrencyModel) Name() string { return ObjectiveConcurrencyModel }

// penaltyScore marks configurations disqualified by a constraint:
// worse than any real bandwidth score, but finite so searches can
// still rank them.
const penaltyScore = math.MaxFloat64 / 4

func (o *concurrencyModel) Eval(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error) {
	if o.Level < 0 || o.Level >= len(r.Memory.Levels) {
		return 0, fmt.Errorf("report has no overhead level %d", o.Level)
	}
	curve := r.Memory.Levels[o.Level].Scalability
	if len(curve) == 0 {
		return 0, fmt.Errorf("overhead level %d has no scalability curve", o.Level)
	}
	cores, err := sp.Int(cfg, "cores")
	if err != nil {
		return 0, err
	}
	agg, per := interpScal(curve, int(cores))
	if o.MinEfficiency > 0 && per < o.MinEfficiency*r.Memory.RefBandwidthGBs {
		return penaltyScore, nil
	}
	return -agg, nil
}

// interpScal interpolates a scalability curve at the given core
// count (clamped at the measured extremes).
func interpScal(curve []report.ScalPoint, cores int) (aggregate, perCore float64) {
	if cores <= curve[0].Cores {
		return curve[0].AggregateGBs, curve[0].PerCoreGBs
	}
	for i := 1; i < len(curve); i++ {
		if cores <= curve[i].Cores {
			a, b := curve[i-1], curve[i]
			f := float64(cores-a.Cores) / float64(b.Cores-a.Cores)
			return a.AggregateGBs + f*(b.AggregateGBs-a.AggregateGBs),
				a.PerCoreGBs + f*(b.PerCoreGBs-a.PerCoreGBs)
		}
	}
	last := curve[len(curve)-1]
	return last.AggregateGBs, last.PerCoreGBs
}

// unmarshalParams decodes an objective's parameter document (nil
// means all defaults), rejecting unknown fields so a typo in a wire
// request fails loudly instead of silently tuning something else.
func unmarshalParams(params json.RawMessage, into any) error {
	if len(params) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("bad params: %w", err)
	}
	return nil
}
