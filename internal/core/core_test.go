package core

import (
	"context"

	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/circuit/bench"
	"mussti/internal/physics"
)

// registryCompile compiles through the registry's "mussti" entry, the
// path every caller outside this package takes.
func registryCompile(ctx context.Context, c *circuit.Circuit, t arch.Target, cfg CompileConfig) (*Result, error) {
	comp, err := LookupCompiler("mussti")
	if err != nil {
		return nil, err
	}
	return comp.Compile(ctx, c, t, &cfg)
}

func device32() *arch.Device {
	cfg := arch.DefaultConfig(32)
	return arch.MustNew(cfg)
}

func TestDefaultOptions(t *testing.T) {
	o := *NewCompileConfig()
	if o.Mapping != MappingSABRE || !o.SwapInsertion {
		t.Errorf("default options = %+v", o)
	}
	if o.LookAhead != 8 || o.SwapThreshold != 4 {
		t.Errorf("default k/T = %d/%d, want 8/4", o.LookAhead, o.SwapThreshold)
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	o := CompileConfig{}.withDefaults()
	if o.LookAhead != 8 || o.SwapThreshold != 4 {
		t.Errorf("zero options not defaulted: %+v", o)
	}
	if o.Params.T1US != physics.Default().T1US {
		t.Error("zero params not defaulted")
	}
	custom := CompileConfig{LookAhead: 3, SwapThreshold: 5}.withDefaults()
	if custom.LookAhead != 3 || custom.SwapThreshold != 5 {
		t.Error("explicit options overridden")
	}
}

func TestMappingStrategyString(t *testing.T) {
	if MappingTrivial.String() != "trivial" || MappingSABRE.String() != "sabre" {
		t.Error("strategy names wrong")
	}
	if MappingStrategy(9).String() != "unknown" {
		t.Error("unknown strategy name wrong")
	}
}

func TestTrivialMappingValidAndLevelMajor(t *testing.T) {
	d := arch.MustNew(arch.DefaultConfig(128))
	m, err := trivialMapping(128, d)
	if err != nil {
		t.Fatal(err)
	}
	zoneLoad := make(map[int]int)
	moduleLoad := make(map[int]int)
	for q, z := range m {
		zoneLoad[z]++
		moduleLoad[d.Zone(z).Module]++
		if zoneLoad[z] > d.Zone(z).Capacity {
			t.Fatalf("zone %d over capacity", z)
		}
		// Level-major fill: the assigned level never increases with q.
		if q > 0 && d.Zone(m[q]).Level > d.Zone(m[q-1]).Level {
			t.Fatalf("mapping not level-major at qubit %d", q)
		}
	}
	for mod, load := range moduleLoad {
		if load > d.Modules[mod].MaxIons {
			t.Errorf("module %d over MaxIons: %d", mod, load)
		}
		if load > moduleBudget(d, mod) {
			t.Errorf("module %d over routing budget: %d > %d", mod, load, moduleBudget(d, mod))
		}
	}
}

func TestTrivialMappingFillsHighestLevelsFirst(t *testing.T) {
	d := device32()
	m, err := trivialMapping(8, d)
	if err != nil {
		t.Fatal(err)
	}
	// First qubits land in module 0's optical zone (level 2).
	if lvl := d.Zone(m[0]).Level; lvl != arch.LevelOptical {
		t.Errorf("first qubit level = %v, want optical", lvl)
	}
}

func TestTrivialMappingOverflowError(t *testing.T) {
	cfg := arch.Config{Modules: 1, TrapCapacity: 4, OperationZones: 1, OpticalZones: 1}
	d := arch.MustNew(cfg)
	if _, err := trivialMapping(100, d); err == nil {
		t.Error("overflow accepted")
	}
}

func TestCompileRejectsOversizedCircuit(t *testing.T) {
	c := bench.MustByName("GHZ_n256")
	d := device32() // 4 modules x 32 = 128 max
	if _, err := registryCompile(context.Background(), c, d, *NewCompileConfig()); err == nil {
		t.Error("oversized circuit accepted")
	}
}

func TestCompileSmallSuiteAllOptionCombos(t *testing.T) {
	d := device32()
	for _, name := range bench.SmallSuite() {
		c := bench.MustByName(name)
		for _, opts := range []CompileConfig{
			{Mapping: MappingTrivial},
			{Mapping: MappingTrivial, SwapInsertion: true},
			{Mapping: MappingSABRE},
			*NewCompileConfig(),
		} {
			res, err := registryCompile(context.Background(), c, d, opts)
			if err != nil {
				t.Fatalf("%s %v/%v: %v", name, opts.Mapping, opts.SwapInsertion, err)
			}
			m := res.Metrics
			st := c.Stats()
			if m.Gates2+m.FiberGates != st.TwoQubit+3*m.InsertedSwaps {
				t.Errorf("%s: executed 2q gates %d+%d != circuit %d + 3x%d swaps",
					name, m.Gates2, m.FiberGates, st.TwoQubit, m.InsertedSwaps)
			}
			if m.Gates1 != st.OneQubit {
				t.Errorf("%s: 1q executed %d, want %d", name, m.Gates1, st.OneQubit)
			}
			if m.Measurements != st.Measures {
				t.Errorf("%s: measurements %d, want %d", name, m.Measurements, st.Measures)
			}
			if m.MakespanUS <= 0 || m.Fidelity.Log() >= 0 {
				t.Errorf("%s: degenerate metrics %+v", name, m)
			}
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := device32()
	a, err := registryCompile(context.Background(), c, d, *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := registryCompile(context.Background(), c, d, *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.Shuttles != b.Metrics.Shuttles ||
		a.Metrics.Fidelity.Log() != b.Metrics.Fidelity.Log() ||
		a.Metrics.MakespanUS != b.Metrics.MakespanUS {
		t.Errorf("compilation not deterministic: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

func TestCompileMappingsRecorded(t *testing.T) {
	c := bench.MustByName("GHZ_n32")
	d := device32()
	res, err := registryCompile(context.Background(), c, d, CompileConfig{Mapping: MappingTrivial})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InitialMapping) != 32 || len(res.FinalMapping) != 32 {
		t.Fatalf("mapping lengths %d/%d", len(res.InitialMapping), len(res.FinalMapping))
	}
	for q, z := range res.FinalMapping {
		if z < 0 || z >= d.NumZones() {
			t.Errorf("final mapping of %d = %d out of range", q, z)
		}
	}
}

func TestCompileTraceWhenRequested(t *testing.T) {
	c := bench.MustByName("BV_n32")
	d := device32()
	opts := *NewCompileConfig()
	opts.Trace = true
	res, err := registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Error("trace requested but empty")
	}
	opts.Trace = false
	res, err = registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("trace recorded without request")
	}
}

func TestCompileOnGridDevice(t *testing.T) {
	// Table 2 path: MUSS-TI on a standard QCCD grid.
	g := arch.MustNewGrid(2, 2, 12)
	for _, name := range bench.SmallSuite() {
		c := bench.MustByName(name)
		res, err := registryCompile(context.Background(), c, g.Device(), *NewCompileConfig())
		if err != nil {
			t.Fatalf("%s on grid: %v", name, err)
		}
		if res.Metrics.FiberGates != 0 {
			t.Errorf("%s: fiber gates on a monolithic grid", name)
		}
		if res.Metrics.InsertedSwaps != 0 {
			t.Errorf("%s: inserted SWAPs on a monolithic grid", name)
		}
	}
}

func TestSabreBeatsOrMatchesTrivialOnLocalApps(t *testing.T) {
	// SABRE should not catastrophically regress shuttle counts on
	// index-local applications (it may tie).
	d := device32()
	for _, name := range []string{"GHZ_n32", "Adder_n32"} {
		c := bench.MustByName(name)
		triv, err := registryCompile(context.Background(), c, d, CompileConfig{Mapping: MappingTrivial})
		if err != nil {
			t.Fatal(err)
		}
		sabre, err := registryCompile(context.Background(), c, d, CompileConfig{Mapping: MappingSABRE})
		if err != nil {
			t.Fatal(err)
		}
		if sabre.Metrics.Shuttles > 2*triv.Metrics.Shuttles+10 {
			t.Errorf("%s: sabre %d shuttles vs trivial %d", name, sabre.Metrics.Shuttles, triv.Metrics.Shuttles)
		}
	}
}

func TestCrossModuleGatesUseFiber(t *testing.T) {
	// Two qubits pinned to different modules must entangle via fiber.
	c := circuit.New("x", 64)
	c.MS(0, 63) // trivially mapped to different modules
	d := arch.MustNew(arch.DefaultConfig(64))
	res, err := registryCompile(context.Background(), c, d, CompileConfig{Mapping: MappingTrivial})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.FiberGates != 1 {
		t.Errorf("fiber gates = %d, want 1", res.Metrics.FiberGates)
	}
	if res.Metrics.Gates2 != 0 {
		t.Errorf("local gates = %d, want 0", res.Metrics.Gates2)
	}
}

func TestPerfectShuttleImprovesFidelity(t *testing.T) {
	c := bench.MustByName("SQRT_n30")
	d := device32()
	normal, err := registryCompile(context.Background(), c, d, *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := *NewCompileConfig()
	opts.Params.PerfectShuttle = true
	ideal, err := registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Metrics.Fidelity.Log() < normal.Metrics.Fidelity.Log() {
		t.Errorf("perfect shuttle fidelity %v worse than normal %v",
			ideal.Metrics.Fidelity.Log(), normal.Metrics.Fidelity.Log())
	}
}

func TestPerfectGatesImproveFidelity(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := device32()
	normal, err := registryCompile(context.Background(), c, d, *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := *NewCompileConfig()
	opts.Params.PerfectGates = true
	ideal, err := registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Metrics.Fidelity.Log() < normal.Metrics.Fidelity.Log() {
		t.Errorf("perfect gates fidelity %v worse than normal %v",
			ideal.Metrics.Fidelity.Log(), normal.Metrics.Fidelity.Log())
	}
}

func TestCompileMediumScale(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale compile skipped in -short")
	}
	for _, name := range bench.MediumSuite() {
		c := bench.MustByName(name)
		d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
		res, err := registryCompile(context.Background(), c, d, *NewCompileConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Metrics.Shuttles == 0 && name != "QAOA_n128" {
			t.Logf("%s: zero shuttles (unusual but not fatal)", name)
		}
	}
}

func TestSwapInsertionTriggersOnStarPattern(t *testing.T) {
	// A hub qubit with heavy future work on a remote module should get
	// swapped there: build a star where q0 first talks to its own module,
	// then repeatedly to module 1 residents.
	n := 64
	c := circuit.New("star", n)
	c.MS(0, 32) // cross-module fiber gate (modules 0 and 1)
	for i := 33; i < 33+8; i++ {
		c.MS(0, i) // heavy follow-up work on module 1
	}
	d := arch.MustNew(arch.DefaultConfig(n))
	opts := CompileConfig{Mapping: MappingTrivial, SwapInsertion: true, LookAhead: 8, SwapThreshold: 4}
	with, err := registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SwapInsertion = false
	without, err := registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if with.Metrics.InsertedSwaps == 0 {
		t.Error("star pattern did not trigger SWAP insertion")
	}
	if without.Metrics.InsertedSwaps != 0 {
		t.Error("SWAP inserted with insertion disabled")
	}
	// The swap converts repeated fiber gates into local gates.
	if with.Metrics.FiberGates >= without.Metrics.FiberGates {
		t.Errorf("insertion did not reduce fiber gates: %d vs %d",
			with.Metrics.FiberGates, without.Metrics.FiberGates)
	}
}
