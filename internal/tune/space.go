// Package tune is the search-driven autotuning engine: it finds, by
// guided search over a declared parameter space, the configuration
// minimizing a pluggable objective evaluated against a Servet report.
//
// The paper's internal/autotune answers its Section V use cases in
// closed form (one formula per question); this package is the
// generalization the autotuning literature builds on top of machine
// parameters (Bayesian-optimization tuners, kernel-tuning toolkits):
// declare what may vary — tile edges, process-to-core mappings,
// collective algorithms, concurrency caps — declare what "better"
// means, and let a search strategy spend an evaluation budget finding
// the best point. Objectives come in two families: cost models
// derived from the report's probe data (latency interpolation,
// scalability curves), and simulated kernels executed on the machine
// model the report describes (memsys traversals, mpisim collectives).
//
// Everything is deterministic: strategies draw every random decision
// from stats.Mix64 keyed by (seed, round, draw), candidate batches
// are evaluated over internal/sched with results merged in proposal
// order, and objectives are pure functions of (report, config) — so a
// tune's full trace is byte-identical at any parallelism, making
// results golden-testable and cacheable across a cluster.
package tune

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Axis kinds.
const (
	// KindIntRange is an inclusive integer range swept with a step.
	KindIntRange = "int-range"
	// KindPow2 sweeps the powers of two in [Min, Max].
	KindPow2 = "pow2"
	// KindChoice is an unordered set of named alternatives.
	KindChoice = "choice"
)

// Axis is one dimension of a parameter space.
type Axis struct {
	// Name identifies the axis; objectives read values by it.
	Name string `json:"name"`
	// Kind is one of the Kind constants.
	Kind string `json:"kind"`
	// Min and Max bound the numeric kinds (inclusive). For pow2 axes
	// both must themselves be powers of two.
	Min int64 `json:"min,omitempty"`
	Max int64 `json:"max,omitempty"`
	// Step is the int-range increment (default 1).
	Step int64 `json:"step,omitempty"`
	// Choices are the alternatives of a choice axis.
	Choices []string `json:"choices,omitempty"`
}

// IntRange returns an inclusive integer-range axis (step <= 0 means 1).
func IntRange(name string, min, max, step int64) Axis {
	if step <= 0 {
		step = 1
	}
	return Axis{Name: name, Kind: KindIntRange, Min: min, Max: max, Step: step}
}

// Pow2 returns an axis sweeping the powers of two in [min, max].
func Pow2(name string, min, max int64) Axis {
	return Axis{Name: name, Kind: KindPow2, Min: min, Max: max}
}

// Choice returns an axis over named alternatives.
func Choice(name string, choices ...string) Axis {
	return Axis{Name: name, Kind: KindChoice, Choices: choices}
}

// validate checks one axis.
func (a Axis) validate() error {
	if a.Name == "" {
		return fmt.Errorf("tune: axis has no name")
	}
	switch a.Kind {
	case KindIntRange:
		if a.Step <= 0 {
			return fmt.Errorf("tune: axis %s: int-range needs a positive step, got %d", a.Name, a.Step)
		}
		if a.Max < a.Min {
			return fmt.Errorf("tune: axis %s: max %d < min %d", a.Name, a.Max, a.Min)
		}
		if (uint64(a.Max)-uint64(a.Min))/uint64(a.Step) >= math.MaxInt {
			return fmt.Errorf("tune: axis %s: int-range [%d, %d] step %d has too many points", a.Name, a.Min, a.Max, a.Step)
		}
	case KindPow2:
		if a.Min <= 0 || a.Max <= 0 {
			return fmt.Errorf("tune: axis %s: pow2 bounds must be positive, got [%d, %d]", a.Name, a.Min, a.Max)
		}
		if a.Min&(a.Min-1) != 0 || a.Max&(a.Max-1) != 0 {
			return fmt.Errorf("tune: axis %s: pow2 bounds must be powers of two, got [%d, %d]", a.Name, a.Min, a.Max)
		}
		if a.Max < a.Min {
			return fmt.Errorf("tune: axis %s: max %d < min %d", a.Name, a.Max, a.Min)
		}
	case KindChoice:
		if len(a.Choices) == 0 {
			return fmt.Errorf("tune: axis %s: choice axis has no choices", a.Name)
		}
		seen := make(map[string]bool, len(a.Choices))
		for _, c := range a.Choices {
			if c == "" {
				return fmt.Errorf("tune: axis %s: empty choice", a.Name)
			}
			if seen[c] {
				return fmt.Errorf("tune: axis %s: duplicate choice %q", a.Name, c)
			}
			seen[c] = true
		}
	default:
		return fmt.Errorf("tune: axis %s: unknown kind %q", a.Name, a.Kind)
	}
	return nil
}

// size returns the number of points on the axis (valid axes only).
func (a Axis) size() int {
	switch a.Kind {
	case KindIntRange:
		// Max-Min can exceed int64; its uint64 difference cannot.
		return int((uint64(a.Max)-uint64(a.Min))/uint64(a.Step)) + 1
	case KindPow2:
		return bits.Len64(uint64(a.Max)) - bits.Len64(uint64(a.Min)) + 1
	case KindChoice:
		return len(a.Choices)
	}
	return 0
}

// value returns the i-th point of the axis (0 <= i < size).
func (a Axis) value(i int) Value {
	switch a.Kind {
	case KindIntRange:
		return Value{Int: a.Min + int64(i)*a.Step}
	case KindPow2:
		return Value{Int: a.Min << uint(i)}
	case KindChoice:
		return Value{Str: a.Choices[i]}
	}
	panic(fmt.Sprintf("tune: value on invalid axis kind %q", a.Kind))
}

// Value is one axis coordinate of a configuration: Int for the
// numeric kinds, Str for choice axes.
type Value struct {
	Int int64  `json:"int,omitempty"`
	Str string `json:"str,omitempty"`
}

// String renders the value.
func (v Value) String() string {
	if v.Str != "" {
		return v.Str
	}
	return strconv.FormatInt(v.Int, 10)
}

// Config is one point of a space, materialized: Config[i] is the
// value on Space.Axes[i].
type Config []Value

// Point is one point of a space in ordinal form: Point[i] indexes
// into the i-th axis's values. Strategies work on points; the engine
// materializes them into Configs for objectives and the trace.
type Point []int

// key returns the dedup key of a point.
func (p Point) key() string {
	var b strings.Builder
	for i, o := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(o))
	}
	return b.String()
}

// clone copies the point.
func (p Point) clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Space is a declarative parameter space: the cross product of its
// axes.
type Space struct {
	// Axes are the space's dimensions, in declaration order.
	Axes []Axis `json:"axes"`
}

// Validate checks the space: at least one axis, every axis valid,
// axis names unique.
func (s *Space) Validate() error {
	if len(s.Axes) == 0 {
		return fmt.Errorf("tune: space has no axes")
	}
	seen := make(map[string]bool, len(s.Axes))
	for _, a := range s.Axes {
		if err := a.validate(); err != nil {
			return err
		}
		if seen[a.Name] {
			return fmt.Errorf("tune: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// Size returns the number of points in the space, saturating at
// math.MaxInt for spaces too large to enumerate.
func (s *Space) Size() int {
	total := 1
	for _, a := range s.Axes {
		n := a.size()
		if total > math.MaxInt/n {
			return math.MaxInt
		}
		total *= n
	}
	return total
}

// AxisIndex returns the position of the named axis, or -1.
func (s *Space) AxisIndex(name string) int {
	for i := range s.Axes {
		if s.Axes[i].Name == name {
			return i
		}
	}
	return -1
}

// Materialize turns an ordinal point into a configuration.
func (s *Space) Materialize(p Point) Config {
	cfg := make(Config, len(s.Axes))
	for i := range s.Axes {
		cfg[i] = s.Axes[i].value(p[i])
	}
	return cfg
}

// Int returns the numeric value of the named axis in cfg.
func (s *Space) Int(cfg Config, name string) (int64, error) {
	i := s.AxisIndex(name)
	if i < 0 || i >= len(cfg) {
		return 0, fmt.Errorf("tune: config has no axis %q", name)
	}
	if s.Axes[i].Kind == KindChoice {
		return 0, fmt.Errorf("tune: axis %q is a choice axis, not numeric", name)
	}
	return cfg[i].Int, nil
}

// Str returns the choice value of the named axis in cfg.
func (s *Space) Str(cfg Config, name string) (string, error) {
	i := s.AxisIndex(name)
	if i < 0 || i >= len(cfg) {
		return "", fmt.Errorf("tune: config has no axis %q", name)
	}
	if s.Axes[i].Kind != KindChoice {
		return "", fmt.Errorf("tune: axis %q is numeric, not a choice axis", name)
	}
	return cfg[i].Str, nil
}

// Describe renders a configuration as "name=value" pairs in axis
// order.
func (s *Space) Describe(cfg Config) string {
	var b strings.Builder
	for i, a := range s.Axes {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(a.Name)
		b.WriteByte('=')
		if i < len(cfg) {
			b.WriteString(cfg[i].String())
		} else {
			b.WriteByte('?')
		}
	}
	return b.String()
}
