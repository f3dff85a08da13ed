package baseline

import (
	"context"
	"fmt"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/core"
)

// compiler adapts one baseline Algorithm to the core.Compiler interface.
// All three baselines target the monolithic QCCD grid only; handing them an
// EML-QCCD device is an error, not a silent conversion — the paper's
// comparison is precisely grid compilers versus the EML machine.
type compiler struct {
	algo Algorithm
}

func (b compiler) Name() string        { return b.algo.RegistryName() }
func (b compiler) DisplayName() string { return b.algo.String() }

// DefaultConfig: the zero CompileConfig IS the baselines' default (each
// zero field reads as "my own default" — k=4 for Dai, Table-1 physics).
// Declaring it explicitly pins the nil-config contract for harness cache
// keys rather than relying on the absent-interface fallback.
func (b compiler) DefaultConfig() core.CompileConfig { return core.CompileConfig{} }

// SupportsTarget: grid only, so harnesses can skip EML-device sweeps for
// the baselines up front instead of failing mid-run.
func (b compiler) SupportsTarget(t arch.Target) bool {
	_, ok := t.(*arch.Grid)
	return ok
}

func (b compiler) Compile(ctx context.Context, c *circuit.Circuit, t arch.Target, cfg *core.CompileConfig) (*core.Result, error) {
	g, ok := t.(*arch.Grid)
	if !ok {
		return nil, fmt.Errorf("baseline: %s targets the monolithic QCCD grid, not %T", b.algo, t)
	}
	if cfg == nil {
		return compile(ctx, b.algo, c, g, core.CompileConfig{})
	}
	return compile(ctx, b.algo, c, g, *cfg)
}

func init() {
	for _, a := range []Algorithm{Murali, Dai, MQT} {
		core.MustRegisterCompiler(compiler{algo: a})
	}
}
