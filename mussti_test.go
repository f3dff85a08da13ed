package mussti_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"mussti"
)

// compile runs the registered compiler name with cfg (nil = its defaults).
func compile(t *testing.T, ctx context.Context, name string, c *mussti.Circuit, target mussti.Target, cfg *mussti.CompileConfig) (*mussti.Result, error) {
	t.Helper()
	comp, err := mussti.LookupCompiler(name)
	if err != nil {
		t.Fatal(err)
	}
	return comp.Compile(ctx, c, target, cfg)
}

func TestPublicQuickstartFlow(t *testing.T) {
	c := mussti.Benchmark("QFT_n32")
	dev := mussti.NewDevice(mussti.DeviceConfigFor(c.NumQubits))
	res, err := compile(t, context.Background(), "mussti", c, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Gates2+res.Metrics.FiberGates == 0 {
		t.Error("no gates executed")
	}
	if res.Metrics.Fidelity.Log10() >= 0 {
		t.Error("fidelity not accumulated")
	}
}

func TestPublicCircuitConstruction(t *testing.T) {
	c := mussti.NewCircuit("bell", 2)
	c.H(0)
	c.CX(0, 1)
	c.Measure(0)
	c.Measure(1)
	dev := mussti.NewDevice(mussti.DeviceConfigFor(2))
	res, err := compile(t, context.Background(), "mussti", c, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Gates2 != 1 {
		t.Errorf("gates2 = %d, want 1", res.Metrics.Gates2)
	}
}

func TestPublicQASM(t *testing.T) {
	src := "qreg q[2];\nh q[0];\ncx q[0],q[1];\n"
	c, err := mussti.ParseQASM("bell", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 2 || len(c.Gates) != 2 {
		t.Errorf("parsed %d qubits %d gates", c.NumQubits, len(c.Gates))
	}
}

func TestPublicBaselines(t *testing.T) {
	c := mussti.Benchmark("BV_n32")
	g, err := mussti.NewGrid(2, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"murali", "dai", "mqt"} {
		res, err := compile(t, context.Background(), algo, c, g, nil)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Metrics.Gates2 == 0 {
			t.Errorf("%v executed no gates", algo)
		}
	}
}

func TestPublicBenchmarkHelpers(t *testing.T) {
	if len(mussti.BenchmarkFamilies()) != 14 {
		t.Errorf("families = %v", mussti.BenchmarkFamilies())
	}
	if _, err := mussti.BenchmarkByName("GHZ_n8"); err != nil {
		t.Error(err)
	}
	if _, err := mussti.BenchmarkByName("bogus"); err == nil {
		t.Error("bogus benchmark accepted")
	}
}

func TestPublicExperimentList(t *testing.T) {
	exps := mussti.ExperimentList()
	if len(exps) != 12 {
		t.Fatalf("experiments = %d, want 12 (9 paper + 3 extensions)", len(exps))
	}
	if _, err := mussti.RunExperiment("does-not-exist"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestPublicRunExperimentContext(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short")
	}
	seq, err := mussti.RunExperimentContext(context.Background(), "table2", nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mussti.RunExperimentContext(context.Background(), "table2", mussti.NewRunner(4))
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Error("parallel table2 differs from sequential")
	}
	if !strings.Contains(par, "Table 2") {
		t.Error("table2 output malformed")
	}
}

func TestPublicPhysicsDefaults(t *testing.T) {
	p := mussti.DefaultPhysics()
	if p.FiberTimeUS != 200 || p.Gate2TimeUS != 40 {
		t.Errorf("physics defaults off: %+v", p)
	}
}

func TestPublicDeviceLevels(t *testing.T) {
	dev := mussti.NewDevice(mussti.DeviceConfigFor(32))
	if len(dev.OpticalZones()) == 0 {
		t.Error("device has no optical zones")
	}
	if mussti.LevelOptical <= mussti.LevelStorage {
		t.Error("level ordering broken")
	}
}

// tickObserver counts public-API observer callbacks.
type tickObserver struct{ gates, moves int }

func (o *tickObserver) GateScheduled(done, total int) { o.gates = done }
func (o *tickObserver) Shuttle(q, from, to int)       { o.moves++ }
func (o *tickObserver) Eviction(victim, from, to int) { o.moves++ }
func (o *tickObserver) SwapInserted(a, b int)         {}

func TestPublicCompileContextAndObserver(t *testing.T) {
	c := mussti.Benchmark("QFT_n32")
	dev := mussti.NewDevice(mussti.DeviceConfigFor(c.NumQubits))

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := compile(t, cancelled, "mussti", c, dev, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	obs := &tickObserver{}
	if _, err := compile(t, context.Background(), "mussti", c, dev, mussti.NewCompileConfig(mussti.WithObserver(obs))); err != nil {
		t.Fatal(err)
	}
	if obs.gates == 0 {
		t.Error("observer saw no gates")
	}

	g, err := mussti.NewGrid(2, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compile(t, cancelled, "dai", c, g, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("baseline err = %v, want context.Canceled", err)
	}
}

func TestPublicRunExperimentCollectCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short")
	}
	out, ms, err := mussti.RunExperimentCollect(context.Background(), "table2", mussti.NewRunner(4))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 2") {
		t.Error("table2 output malformed")
	}
	if len(ms) == 0 {
		t.Fatal("no measurements collected")
	}
	var buf bytes.Buffer
	if err := mussti.WriteMeasurementsCSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(ms)+1 {
		t.Errorf("csv has %d lines, want %d rows + header", lines, len(ms))
	}
}

func TestPublicCompilerRegistry(t *testing.T) {
	// The four built-ins resolve by name, in registration order.
	names := mussti.CompilerNames()
	if len(names) < 4 || names[0] != "mussti" || names[1] != "murali" || names[2] != "dai" || names[3] != "mqt" {
		t.Fatalf("CompilerNames() = %v, want [mussti murali dai mqt ...]", names)
	}
	c := mussti.Benchmark("GHZ_n32")
	g, err := mussti.NewGrid(2, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mussti", "murali", "dai", "mqt"} {
		comp, err := mussti.LookupCompiler(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := comp.Compile(context.Background(), c, g, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Metrics.Gates2+res.Metrics.FiberGates == 0 {
			t.Errorf("%s: no gates executed", name)
		}
	}
	if _, err := mussti.LookupCompiler("nope"); err == nil {
		t.Error("unknown compiler resolved")
	}
}

func TestPublicCompileConfigOptions(t *testing.T) {
	cfg := mussti.NewCompileConfig(mussti.WithLookAhead(6), mussti.WithMapping(mussti.MappingTrivial))
	if cfg.LookAhead != 6 || cfg.Mapping != mussti.MappingTrivial || !cfg.SwapInsertion {
		t.Errorf("functional options misapplied: %+v", cfg)
	}
	// The unified config drives the registry path end to end.
	comp, err := mussti.LookupCompiler("mussti")
	if err != nil {
		t.Fatal(err)
	}
	c := mussti.Benchmark("GHZ_n32")
	dev := mussti.NewDevice(mussti.DeviceConfigFor(c.NumQubits))
	if _, err := comp.Compile(context.Background(), c, dev, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRunExperimentWith(t *testing.T) {
	out, ms, err := mussti.RunExperimentWith(context.Background(), "table2", nil, []string{"mussti"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ShutOurs") || strings.Contains(out, "Shut[55]") {
		t.Errorf("compiler restriction not applied:\n%s", out)
	}
	for _, m := range ms {
		if m.Compiler != "MUSS-TI" {
			t.Errorf("unexpected compiler %q in measurements", m.Compiler)
		}
	}
}
