package core

import (
	"fmt"

	"mussti/internal/physics"
)

// MappingStrategy selects the initial qubit placement (§3.4).
type MappingStrategy int

const (
	// MappingTrivial places qubits sequentially into zones ordered from the
	// highest level to the lowest.
	MappingTrivial MappingStrategy = iota
	// MappingSABRE runs the two-fold forward/reverse search of Li et
	// al. [37] adapted to EML-QCCD, using the final mapping of a reverse
	// pass as the real run's initial mapping.
	MappingSABRE
)

// String names the strategy for reports.
func (m MappingStrategy) String() string {
	switch m {
	case MappingTrivial:
		return "trivial"
	case MappingSABRE:
		return "sabre"
	}
	return "unknown"
}

// CompileConfig is the one configuration type shared by every compiler
// behind the Compiler interface. It is the union of the MUSS-TI and baseline
// knobs: each compiler reads the fields it understands and ignores the rest
// (the baselines use Params, LookAhead, Trace and Observer; the mapping,
// SWAP-insertion and replacement fields are MUSS-TI-specific).
//
// Zero values split two ways. The numeric/physics knobs read zero as "this
// compiler's own default" — LookAhead 0 is k=8 for MUSS-TI and k=4 for the
// Dai baseline, zero Params is the Table-1 physics. The enum/bool knobs'
// zero values are real settings, not placeholders: zero Mapping is the
// trivial mapping, zero SwapInsertion is off, zero Replacement is LRU (the
// ablation experiments rely on exactly these). So the zero CompileConfig is
// a meaningful configuration, distinct from the paper's headline one; for
// the latter pass a nil *CompileConfig to Compiler.Compile (each compiler
// substitutes its own paper defaults) or start from NewCompileConfig.
//
// Build one literally, or with the functional options layered on the paper
// defaults: NewCompileConfig(WithLookAhead(6), WithTrace()).
type CompileConfig struct {
	// Mapping is the initial-placement strategy.
	Mapping MappingStrategy
	// SwapInsertion enables the inter-module SWAP-gate insertion of §3.3.
	SwapInsertion bool
	// LookAhead is the weight-table window k in DAG layers (MUSS-TI default
	// 8; the Dai baseline's destination look-ahead defaults to 4).
	LookAhead int
	// SwapThreshold is the weight threshold T for inserting a SWAP
	// (paper: 4; must exceed the 3-MS cost of a SWAP).
	SwapThreshold int
	// Params is the physics model; zero-value means physics.Default().
	Params physics.Params
	// Trace enables op-level trace recording on the engine.
	Trace bool
	// Replacement selects the conflict-handling victim policy; the zero
	// value is the paper's LRU scheduler. The alternatives (FIFO, random,
	// clairvoyant Belady) exist for the replacement-policy ablation.
	Replacement ReplacementPolicy
	// DisableRoutingLookAhead turns off the look-ahead attraction term in
	// zone selection (an implementation design choice on top of the
	// paper's multi-level rule); the `routing` extension experiment
	// measures its value.
	DisableRoutingLookAhead bool
	// Observer, when non-nil, receives per-step progress callbacks (gates
	// scheduled, shuttles, evictions, inserted SWAPs) from the run. It
	// never changes the schedule.
	Observer Observer
}

// CompileOption mutates a CompileConfig; see NewCompileConfig.
type CompileOption func(*CompileConfig)

// NewCompileConfig returns the paper's MUSS-TI headline configuration —
// SABRE mapping + SWAP insertion, k=8, T=4, Table-1 physics, as the
// registry's "mussti" entry declares it — with the given options applied,
// so callers tweak one knob without spelling out the whole struct:
//
//	cfg := core.NewCompileConfig(core.WithLookAhead(6), core.WithTrace())
//
// Because the base is MUSS-TI's defaults (k=8, SABRE, SWAP insertion),
// handing the result to a different compiler overrides that compiler's own
// defaults where fields overlap (the Dai baseline would run with k=8, not
// its paper k=4). For cross-compiler sweeps where each compiler should use
// its own defaults, pass nil to Compiler.Compile instead and vary only the
// knob you mean to vary.
func NewCompileConfig(opts ...CompileOption) *CompileConfig {
	cfg := musstiCompiler{}.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &cfg
}

// WithMapping selects the initial-placement strategy.
func WithMapping(m MappingStrategy) CompileOption {
	return func(c *CompileConfig) { c.Mapping = m }
}

// WithSwapInsertion toggles the §3.3 inter-module SWAP insertion.
func WithSwapInsertion(on bool) CompileOption {
	return func(c *CompileConfig) { c.SwapInsertion = on }
}

// WithLookAhead sets the look-ahead window k in DAG layers.
func WithLookAhead(k int) CompileOption {
	return func(c *CompileConfig) { c.LookAhead = k }
}

// WithSwapThreshold sets the SWAP-insertion weight threshold T.
func WithSwapThreshold(t int) CompileOption {
	return func(c *CompileConfig) { c.SwapThreshold = t }
}

// WithPhysics sets the physics model (Table 1 of the paper by default).
func WithPhysics(p physics.Params) CompileOption {
	return func(c *CompileConfig) { c.Params = p }
}

// WithTrace enables op-level trace recording.
func WithTrace() CompileOption {
	return func(c *CompileConfig) { c.Trace = true }
}

// WithReplacement selects the conflict-handling victim policy.
func WithReplacement(p ReplacementPolicy) CompileOption {
	return func(c *CompileConfig) { c.Replacement = p }
}

// WithObserver attaches per-step progress callbacks to the run.
func WithObserver(o Observer) CompileOption {
	return func(c *CompileConfig) { c.Observer = o }
}

// WithRoutingLookAhead toggles the look-ahead attraction term in zone
// selection (on by default).
func WithRoutingLookAhead(on bool) CompileOption {
	return func(c *CompileConfig) { c.DisableRoutingLookAhead = !on }
}

// CacheKey renders every semantic field deterministically for measurement
// caches: no pointers, maps or addresses are involved, so equal configs
// yield equal keys in any process. The Observer is deliberately excluded
// — observation never changes a measurement — and Trace is included so traced runs never alias untraced ones (callers
// typically refuse to cache them at all).
func (c CompileConfig) CacheKey() string {
	return fmt.Sprintf("map=%d swap=%t k=%d T=%d repl=%d nolook=%t trace=%t|phys%+v",
		c.Mapping, c.SwapInsertion, c.LookAhead, c.SwapThreshold,
		c.Replacement, c.DisableRoutingLookAhead, c.Trace, c.Params)
}

func (o CompileConfig) withDefaults() CompileConfig {
	if o.LookAhead <= 0 {
		o.LookAhead = 8
	}
	if o.SwapThreshold <= 0 {
		o.SwapThreshold = 4
	}
	if o.Params == (physics.Params{}) {
		o.Params = physics.Default()
	}
	return o
}
