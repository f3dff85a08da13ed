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
	"fmt"
	"time"

	"mussti/internal/arch"
	_ "mussti/internal/baseline" // registers "murali", "dai" and "mqt"
	"mussti/internal/circuit"
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
		// A grid from outside (the dist decoder builds it as a literal)
		// has not been through NewGrid's checks.
		if err := s.Grid.Validate(); err != nil {
			return nil, err
		}
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

// MeasurementOf packages one compile Result as a Measurement row under the
// given application name — the single conversion every harness path uses
// (Job.run, the batch path runBatchUnit, and the compilation service's
// ad-hoc QASM circuits), so they can never drift.
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

// idealParams returns Table-1 physics with the Fig. 13 idealisation
// switches applied.
func idealParams(perfectGates, perfectShuttle bool) physics.Params {
	p := physics.Default()
	p.PerfectGates = perfectGates
	p.PerfectShuttle = perfectShuttle
	return p
}
