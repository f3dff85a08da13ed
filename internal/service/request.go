package service

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
	"mussti/internal/eval"
)

// compileRequest is the JSON body of POST /v1/compile. Exactly one circuit
// source is set: App names a built-in paper benchmark ("QFT_n32"), QASM
// carries inline OpenQASM 2.0 source. Everything else is optional and
// defaults to the paper's headline setup: the "mussti" compiler on an
// EML-QCCD device sized for the circuit.
type compileRequest struct {
	// App is a built-in benchmark name, e.g. "GHZ_n32" (GET /v1/benchmarks
	// lists the families).
	App string `json:"app,omitempty"`
	// QASM is inline OpenQASM 2.0 source (QASMBench subset).
	QASM string `json:"qasm,omitempty"`
	// Name labels a QASM circuit in responses; default "qasm".
	Name string `json:"name,omitempty"`
	// Lower rewrites a QASM circuit into the native gate set (MS +
	// rotations) and cleans up one-qubit gates before compiling.
	Lower bool `json:"lower,omitempty"`
	// Compiler is a registry name (GET /v1/compilers); default "mussti".
	Compiler string `json:"compiler,omitempty"`
	// Arch configures the EML-QCCD device; nil means the paper default
	// sized for the circuit. Modules must be set when Arch is present.
	Arch *archRequest `json:"arch,omitempty"`
	// Grid selects a monolithic QCCD grid target instead of a device.
	Grid *gridRequest `json:"grid,omitempty"`
	// Config overrides compile knobs; nil means the compiler's defaults.
	Config *configRequest `json:"config,omitempty"`
	// Stream switches the response to streamed progress events: chunked
	// JSON lines, or SSE when the request Accepts text/event-stream.
	Stream bool `json:"stream,omitempty"`
}

// archRequest mirrors the arch.Config knobs the service exposes.
type archRequest struct {
	Modules         int `json:"modules"`
	TrapCapacity    int `json:"trap_capacity,omitempty"`
	OpticalCapacity int `json:"optical_capacity,omitempty"`
	OpticalZones    int `json:"optical_zones,omitempty"`
}

// gridRequest describes a rows×cols monolithic QCCD grid.
type gridRequest struct {
	Rows     int `json:"rows"`
	Cols     int `json:"cols"`
	Capacity int `json:"capacity"`
}

// configRequest mirrors the CompileConfig knobs the service exposes. Absent
// fields keep the compiler's own defaults.
type configRequest struct {
	// Mapping is "trivial" or "sabre".
	Mapping       string `json:"mapping,omitempty"`
	SwapInsertion *bool  `json:"swap_insertion,omitempty"`
	LookAhead     int    `json:"look_ahead,omitempty"`
	SwapThreshold int    `json:"swap_threshold,omitempty"`
	// Replacement is "lru", "fifo", "random" or "belady".
	Replacement string `json:"replacement,omitempty"`
}

// task is a fully resolved compile request: a display label, the cache key
// the request coalesces under, and a run closure that executes it with an
// optional per-request progress observer attached.
type task struct {
	label string
	key   string
	run   func(ctx context.Context, obs core.Observer) (eval.Measurement, error)
}

// badRequest marks resolution errors the client caused (HTTP 400), as
// opposed to compile failures (HTTP 500).
type badRequest struct{ err error }

func (e badRequest) Error() string { return e.err.Error() }

func badRequestf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// applyConfig folds the request's knob overrides onto the compiler's default
// configuration.
func applyConfig(base core.CompileConfig, req *configRequest) (core.CompileConfig, error) {
	if req == nil {
		return base, nil
	}
	switch strings.ToLower(req.Mapping) {
	case "":
	case "trivial":
		base.Mapping = core.MappingTrivial
	case "sabre":
		base.Mapping = core.MappingSABRE
	default:
		return base, badRequestf("unknown mapping %q (want trivial or sabre)", req.Mapping)
	}
	if req.SwapInsertion != nil {
		base.SwapInsertion = *req.SwapInsertion
	}
	if req.LookAhead < 0 || req.SwapThreshold < 0 {
		return base, badRequestf("look_ahead and swap_threshold must be non-negative")
	}
	if req.LookAhead > 0 {
		base.LookAhead = req.LookAhead
	}
	if req.SwapThreshold > 0 {
		base.SwapThreshold = req.SwapThreshold
	}
	switch strings.ToLower(req.Replacement) {
	case "":
	case "lru":
		base.Replacement = core.ReplaceLRU
	case "fifo":
		base.Replacement = core.ReplaceFIFO
	case "random":
		base.Replacement = core.ReplaceRandom
	case "belady":
		base.Replacement = core.ReplaceBelady
	default:
		return base, badRequestf("unknown replacement %q (want lru, fifo, random or belady)", req.Replacement)
	}
	return base, nil
}

// archConfig lifts the request's device shape into an arch.Config.
func (r *archRequest) config() (arch.Config, error) {
	if r.Modules <= 0 {
		return arch.Config{}, badRequestf("arch.modules must be positive (omit arch entirely for the paper default)")
	}
	cfg := arch.DefaultConfig(0)
	cfg.Modules = r.Modules
	if r.TrapCapacity > 0 {
		cfg.TrapCapacity = r.TrapCapacity
	}
	if r.OpticalCapacity > 0 {
		cfg.OpticalCapacity = r.OpticalCapacity
	}
	if r.OpticalZones > 0 {
		cfg.OpticalZones = r.OpticalZones
	}
	return cfg, nil
}

// resolve validates the request and builds its task. All user-input errors
// surface here as badRequest, before admission — a malformed request never
// holds a compile slot.
func (s *Server) resolve(req *compileRequest) (task, error) {
	name := req.Compiler
	if name == "" {
		name = "mussti"
	}
	comp, err := core.LookupCompiler(name)
	if err != nil {
		return task{}, badRequest{err}
	}
	if req.Arch != nil && req.Grid != nil {
		return task{}, badRequestf("set arch or grid, not both")
	}
	var grid *arch.Grid
	if req.Grid != nil {
		grid, err = arch.NewGrid(req.Grid.Rows, req.Grid.Cols, req.Grid.Capacity)
		if err != nil {
			return task{}, badRequest{err}
		}
	}
	switch {
	case req.App != "" && req.QASM != "":
		return task{}, badRequestf("set app or qasm, not both")
	case req.App != "":
		return s.resolveApp(req, name, comp, grid)
	case req.QASM != "":
		return s.resolveQASM(req, name, comp, grid)
	default:
		return task{}, badRequestf("set app (a built-in benchmark) or qasm (inline OpenQASM 2.0)")
	}
}

// resolveApp builds the task for a built-in benchmark: a registry
// CompileSpec job through Runner.RunJob, so the request rides the same memo
// singleflight, disk cache and (when configured) dist fleet as the
// experiment harness — identical requests across clients compile once.
func (s *Server) resolveApp(req *compileRequest, name string, comp core.Compiler, grid *arch.Grid) (task, error) {
	if _, err := bench.ByName(req.App); err != nil {
		return task{}, badRequest{err}
	}
	spec := eval.CompileSpec{App: req.App, Compiler: name, Grid: grid}
	if req.Arch != nil {
		cfg, err := req.Arch.config()
		if err != nil {
			return task{}, err
		}
		spec.Arch = cfg
	}
	if req.Config != nil {
		cfg, err := applyConfig(core.DefaultConfigFor(comp), req.Config)
		if err != nil {
			return task{}, err
		}
		spec.Config = &cfg
	}
	key, _ := spec.CacheKey()
	return task{
		label: req.App + "/" + name,
		key:   key,
		run: func(ctx context.Context, obs core.Observer) (eval.Measurement, error) {
			j := eval.Job{Spec: spec}
			if obs != nil {
				j = j.WithObserver(obs)
			}
			return s.runner.RunJob(ctx, j)
		},
	}, nil
}

// resolveQASM builds the task for an inline QASM circuit. Ad-hoc circuits
// have no registry spec, so they run through Runner.RunKeyed under a
// content-hash key: identical submissions — same source, compiler, target
// and knobs — still coalesce in flight and persist to the shared disk
// cache; only the circuit source replaces the benchmark name in the key.
func (s *Server) resolveQASM(req *compileRequest, name string, comp core.Compiler, grid *arch.Grid) (task, error) {
	label := req.Name
	if label == "" {
		label = "qasm"
	}
	c, err := circuit.ParseQASM(label, strings.NewReader(req.QASM))
	if err != nil {
		return task{}, badRequest{err}
	}
	if req.Lower {
		c = circuit.OptimizeOneQubit(circuit.LowerToNative(c))
	}
	var target arch.Target
	if grid != nil {
		target = grid
	} else {
		acfg := arch.DefaultConfig(c.NumQubits)
		if req.Arch != nil {
			if acfg, err = req.Arch.config(); err != nil {
				return task{}, err
			}
		}
		dev, err := arch.New(acfg)
		if err != nil {
			return task{}, badRequest{err}
		}
		target = dev
	}
	cfg, err := applyConfig(core.DefaultConfigFor(comp), req.Config)
	if err != nil {
		return task{}, err
	}
	sum := sha256.Sum256([]byte(req.QASM))
	key := fmt.Sprintf("qasm-sha256:%x|lower=%t|%s|%s|%s|%s",
		sum, req.Lower, label, name, target.CacheKey(), cfg.CacheKey())
	return task{
		label: label + "/" + name,
		key:   key,
		run: func(ctx context.Context, obs core.Observer) (eval.Measurement, error) {
			return s.runner.RunKeyed(ctx, key, func(ctx context.Context) (eval.Measurement, error) {
				cc := cfg
				cc.Observer = obs
				res, err := comp.Compile(ctx, c, target, &cc)
				if err != nil {
					return eval.Measurement{}, err
				}
				return eval.MeasurementOf(c.Name, comp, c, res), nil
			})
		},
	}, nil
}
