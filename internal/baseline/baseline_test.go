package baseline

import (
	"context"
	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
)

// registryCompile compiles through the registry entry of algo, the path
// every caller outside this package takes.
func registryCompile(ctx context.Context, algo Algorithm, c *circuit.Circuit, g *arch.Grid, cfg core.CompileConfig) (*core.Result, error) {
	comp, err := core.LookupCompiler(algo.RegistryName())
	if err != nil {
		return nil, err
	}
	return comp.Compile(ctx, c, g, &cfg)
}

func grid22() *arch.Grid { return arch.MustNewGrid(2, 2, 12) }

func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{Murali: "QCCD-Murali", Dai: "QCCD-Dai", MQT: "MQT", Algorithm(9): "unknown"}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestCompileRejectsOversized(t *testing.T) {
	c := bench.MustByName("GHZ_n256")
	g := arch.MustNewGrid(2, 2, 8) // 32 slots
	if _, err := registryCompile(context.Background(), Murali, c, g, core.CompileConfig{}); err == nil {
		t.Error("oversized circuit accepted")
	}
}

func TestAllBaselinesCompleteSmallSuite(t *testing.T) {
	g := grid22()
	for _, name := range bench.SmallSuite() {
		c := bench.MustByName(name)
		st := c.Stats()
		for _, algo := range []Algorithm{Murali, Dai, MQT} {
			res, err := registryCompile(context.Background(), algo, c, g, core.CompileConfig{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, algo, err)
			}
			m := res.Metrics
			if m.Gates2 != st.TwoQubit {
				t.Errorf("%s/%s: executed %d 2q gates, want %d", name, algo, m.Gates2, st.TwoQubit)
			}
			if m.Gates1 != st.OneQubit || m.Measurements != st.Measures {
				t.Errorf("%s/%s: 1q/meas = %d/%d, want %d/%d",
					name, algo, m.Gates1, m.Measurements, st.OneQubit, st.Measures)
			}
			if m.FiberGates != 0 {
				t.Errorf("%s/%s: fiber gates on a grid", name, algo)
			}
		}
	}
}

func TestMQTShuttlesDominate(t *testing.T) {
	// The dedicated-processing-zone discipline must cost far more shuttles
	// than the greedy compilers — the Table 2 ordering.
	g := grid22()
	for _, name := range []string{"Adder_n32", "QFT_n32", "SQRT_n30"} {
		c := bench.MustByName(name)
		mur, err := registryCompile(context.Background(), Murali, c, g, core.CompileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		mqt, err := registryCompile(context.Background(), MQT, c, g, core.CompileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if mqt.Metrics.Shuttles <= 2*mur.Metrics.Shuttles {
			t.Errorf("%s: MQT %d shuttles not ≫ Murali %d", name, mqt.Metrics.Shuttles, mur.Metrics.Shuttles)
		}
	}
}

func TestDaiBeatsOrMatchesMurali(t *testing.T) {
	g := grid22()
	for _, name := range bench.SmallSuite() {
		c := bench.MustByName(name)
		mur, err := registryCompile(context.Background(), Murali, c, g, core.CompileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		dai, err := registryCompile(context.Background(), Dai, c, g, core.CompileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if dai.Metrics.Shuttles > mur.Metrics.Shuttles {
			t.Errorf("%s: Dai %d shuttles worse than Murali %d", name, dai.Metrics.Shuttles, mur.Metrics.Shuttles)
		}
	}
}

func TestBaselineDeterministic(t *testing.T) {
	g := grid22()
	c := bench.MustByName("QFT_n32")
	for _, algo := range []Algorithm{Murali, Dai, MQT} {
		a, err := registryCompile(context.Background(), algo, c, g, core.CompileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := registryCompile(context.Background(), algo, c, g, core.CompileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Metrics.Shuttles != b.Metrics.Shuttles || a.Metrics.MakespanUS != b.Metrics.MakespanUS {
			t.Errorf("%s not deterministic", algo)
		}
	}
}

func TestColocationSkipsShuttling(t *testing.T) {
	// Two qubits in the same trap gate for free under Murali/Dai.
	c := circuit.New("local", 2)
	c.MS(0, 1)
	g := grid22()
	for _, algo := range []Algorithm{Murali, Dai} {
		res, err := registryCompile(context.Background(), algo, c, g, core.CompileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Shuttles != 0 {
			t.Errorf("%s: co-located gate cost %d shuttles", algo, res.Metrics.Shuttles)
		}
	}
	// MQT still hauls both to the processing zone and back.
	res, err := registryCompile(context.Background(), MQT, c, g, core.CompileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Shuttles == 0 {
		t.Error("MQT executed outside the processing zone")
	}
}

func TestMQTProcessingZoneDiscipline(t *testing.T) {
	c := circuit.New("p", 4)
	c.MS(0, 3)
	g := arch.MustNewGrid(2, 2, 4)
	res, err := registryCompile(context.Background(), MQT, c, g, core.CompileConfig{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	gateTrap := -1
	for _, op := range res.Trace {
		if op.Kind == "gate2" {
			gateTrap = op.Zone
		}
	}
	if gateTrap != 0 {
		t.Errorf("MQT gate executed in trap %d, want processing trap 0", gateTrap)
	}
}

func TestDaiLookAheadOption(t *testing.T) {
	g := arch.MustNewGrid(3, 4, 16)
	c := bench.MustByName("Adder_n128")
	deep, err := registryCompile(context.Background(), Dai, c, g, core.CompileConfig{LookAhead: 8})
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := registryCompile(context.Background(), Dai, c, g, core.CompileConfig{LookAhead: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Both must complete; counts may differ but stay in the same decade.
	if deep.Metrics.Shuttles == 0 || shallow.Metrics.Shuttles == 0 {
		t.Error("look-ahead variant produced zero shuttles on Adder_n128")
	}
}

func TestLargeGridRun(t *testing.T) {
	if testing.Short() {
		t.Skip("large baseline run skipped in -short")
	}
	g := arch.MustNewGrid(4, 5, 16)
	c := bench.MustByName("GHZ_n256")
	for _, algo := range []Algorithm{Murali, Dai} {
		if _, err := registryCompile(context.Background(), algo, c, g, core.CompileConfig{}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}
