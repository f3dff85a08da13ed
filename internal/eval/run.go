// Package eval is the experiment harness: it runs application × device ×
// compiler combinations and regenerates every table and figure of the
// MUSS-TI evaluation (§5) as text rows. Each experiment has a function
// returning structured results plus a formatter, so both the CLI
// (cmd/experiments) and the benchmark suite (bench_test.go) share one
// implementation.
//
// Compilers are resolved through the process-wide registry in internal/core:
// every CompileSpec names its compiler by registry name ("mussti", "murali",
// "dai", "mqt", or any out-of-tree registration), so registered compilers
// automatically flow through the experiments, the measurement cache and CSV
// output. Note the asymmetry: specs and cache keys carry the registry name,
// while the rendered Measurement.Compiler column carries the compiler's
// display label ("MUSS-TI", "QCCD-Dai", ...) — the paper's table labels.
package eval

import (
	"context"
	"fmt"
	"time"

	"mussti/internal/arch"
	"mussti/internal/baseline"
	"mussti/internal/circuit"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
	"mussti/internal/physics"
)

// Measurement is one (application, compiler, device) data point.
type Measurement struct {
	App      string
	Compiler string
	Qubits   int
	TwoQubit int

	Shuttles      int
	ChainSwaps    int
	InsertedSwaps int
	FiberGates    int
	TimeUS        float64
	Fidelity      float64 // linear; underflows to 0 exactly like the paper
	Log10F        float64
	CompileTime   time.Duration
}

// CompileSpec describes one measurement through the compiler registry:
// Compiler names a registered compiler, App the benchmark, and the machine
// is the Grid when set or an EML-QCCD device built from Arch otherwise. A
// fully zero Arch resolves to the paper's default configuration for the
// app's qubit count; a partially populated Arch must set Modules, or the
// spec errors (silently swapping in the defaults would measure the wrong
// machine). A nil Config means the compiler's own paper-default
// configuration.
type CompileSpec struct {
	App      string
	Compiler string
	Grid     *arch.Grid
	Arch     arch.Config
	Config   *core.CompileConfig
}

// target resolves the machine the spec compiles onto; numQubits sizes the
// default EML configuration when Arch is zero.
func (s CompileSpec) target(numQubits int) (arch.Target, error) {
	if s.Grid != nil {
		return s.Grid, nil
	}
	cfg := s.Arch
	if cfg == (arch.Config{}) {
		cfg = arch.DefaultConfig(numQubits)
	} else if cfg.Modules == 0 {
		return nil, fmt.Errorf("eval: %s/%s: partial Arch config %+v: set Modules, or leave the whole config zero for the paper default",
			s.App, s.Compiler, cfg)
	}
	return arch.New(cfg)
}

// config resolves the effective compile configuration: the spec's own when
// set, the compiler's default otherwise.
func (s CompileSpec) config(c core.Compiler) core.CompileConfig {
	if s.Config != nil {
		return *s.Config
	}
	return core.DefaultConfigFor(c)
}

// RunSpec compiles one measurement point through the compiler registry. It
// is RunSpecContext with a background context.
func RunSpec(spec CompileSpec) (Measurement, error) {
	return RunSpecContext(context.Background(), spec)
}

// RunSpecContext resolves spec.Compiler in the registry, builds the target
// machine, compiles, and packages the metrics as a Measurement whose
// Compiler column carries the compiler's display label. ctx aborts the
// compile mid-flight within one scheduler step.
func RunSpecContext(ctx context.Context, spec CompileSpec) (Measurement, error) {
	comp, err := core.LookupCompiler(spec.Compiler)
	if err != nil {
		return Measurement{}, err
	}
	c, err := bench.ByName(spec.App)
	if err != nil {
		return Measurement{}, err
	}
	target, err := spec.target(c.NumQubits)
	if err != nil {
		return Measurement{}, err
	}
	cfg := spec.config(comp)
	res, err := comp.Compile(ctx, c, target, &cfg)
	if err != nil {
		return Measurement{}, fmt.Errorf("eval: %s/%s: %w", spec.App, spec.Compiler, err)
	}
	return MeasurementOf(spec.App, comp, c, res), nil
}

// MeasurementOf packages one compile Result as a Measurement row under the
// given application name — the single conversion every harness path uses
// (RunSpecContext, the batch path runBatchUnit, and the compilation
// service's ad-hoc QASM circuits), so they can never drift.
func MeasurementOf(app string, comp core.Compiler, c *circuit.Circuit, res *core.Result) Measurement {
	st := c.Stats()
	m := res.Metrics
	return Measurement{
		App:           app,
		Compiler:      core.CompilerLabel(comp),
		Qubits:        c.NumQubits,
		TwoQubit:      st.TwoQubit,
		Shuttles:      m.Shuttles,
		ChainSwaps:    m.ChainSwaps,
		InsertedSwaps: m.InsertedSwaps,
		FiberGates:    m.FiberGates,
		TimeUS:        m.MakespanUS,
		Fidelity:      m.Fidelity.Value(),
		Log10F:        m.Fidelity.Log10(),
		CompileTime:   res.CompileTime,
	}
}

// MusstiSpec describes a MUSS-TI run: either on an EML-QCCD device built
// from Config (the default), or directly on a standard QCCD grid when Grid
// is set (Table 2 / Fig. 6 small scale apply MUSS-TI "on these standard
// QCCD structures").
//
// Deprecated: MusstiSpec is the pre-registry spec; it is converted to a
// CompileSpec with Compiler "mussti" internally. New code should build a
// CompileSpec.
type MusstiSpec struct {
	App    string
	Config arch.Config
	Grid   *arch.Grid
	Opts   core.Options
}

// spec lifts the legacy MUSS-TI spec into the unified CompileSpec. The
// legacy sentinel — any Config with Modules == 0 meant "the paper default",
// other fields ignored — is normalised to the zero Arch so legacy callers
// keep their documented behaviour (and their cache keys coincide with the
// equivalent zero-Arch registry specs).
func (s MusstiSpec) spec() CompileSpec {
	opts := s.Opts
	cfg := s.Config
	if cfg.Modules == 0 {
		cfg = arch.Config{}
	}
	return CompileSpec{App: s.App, Compiler: "mussti", Grid: s.Grid, Arch: cfg, Config: &opts}
}

// RunMussti compiles one application with MUSS-TI and packages the metrics.
// It is RunMusstiContext with a background context.
func RunMussti(spec MusstiSpec) (Measurement, error) {
	return RunMusstiContext(context.Background(), spec)
}

// RunMusstiContext is RunMussti with cooperative cancellation: ctx aborts
// the compile mid-flight within one scheduler step.
func RunMusstiContext(ctx context.Context, spec MusstiSpec) (Measurement, error) {
	return RunSpecContext(ctx, spec.spec())
}

// BaselineSpec describes a baseline run on the monolithic grid.
//
// Deprecated: BaselineSpec is the pre-registry spec; it is converted to a
// CompileSpec named after the algorithm internally. New code should build a
// CompileSpec.
type BaselineSpec struct {
	App       string
	Algorithm baseline.Algorithm
	Rows      int
	Cols      int
	Capacity  int
	Opts      baseline.Options
}

// spec lifts the legacy baseline spec into the unified CompileSpec. The
// grid construction can fail (that was RunBaseline's error path), so unlike
// MusstiSpec.spec this returns an error.
func (s BaselineSpec) spec() (CompileSpec, error) {
	name := s.Algorithm.RegistryName()
	if name == "" {
		return CompileSpec{}, fmt.Errorf("eval: unknown baseline algorithm %d", s.Algorithm)
	}
	g, err := arch.NewGrid(s.Rows, s.Cols, s.Capacity)
	if err != nil {
		return CompileSpec{}, err
	}
	cfg := s.Opts.Config()
	return CompileSpec{App: s.App, Compiler: name, Grid: g, Config: &cfg}, nil
}

// RunBaseline compiles one application with a grid baseline. It is
// RunBaselineContext with a background context.
func RunBaseline(spec BaselineSpec) (Measurement, error) {
	return RunBaselineContext(context.Background(), spec)
}

// RunBaselineContext is RunBaseline with cooperative cancellation.
func RunBaselineContext(ctx context.Context, spec BaselineSpec) (Measurement, error) {
	s, err := spec.spec()
	if err != nil {
		return Measurement{}, err
	}
	return RunSpecContext(ctx, s)
}

// emlConfig builds the EML-QCCD configuration MUSS-TI uses when the paper
// pins a module count and trap capacity (Table 2, Fig. 6): `modules`
// modules of the standard 2-storage/1-operation/1-optical layout.
func emlConfig(modules, capacity int) arch.Config {
	cfg := arch.DefaultConfig(0)
	cfg.Modules = modules
	cfg.TrapCapacity = capacity
	if cfg.OpticalCapacity > capacity {
		cfg.OpticalCapacity = capacity
	}
	return cfg
}

// idealParams returns Table-1 physics with the Fig. 13 idealisation
// switches applied.
func idealParams(perfectGates, perfectShuttle bool) physics.Params {
	p := physics.Default()
	p.PerfectGates = perfectGates
	p.PerfectShuttle = perfectShuttle
	return p
}
