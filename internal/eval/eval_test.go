package eval

import (
	"context"
	"strings"
	"testing"

	"mussti/internal/arch"
)

// runSpec compiles one spec the way a nil Runner does.
func runSpec(spec CompileSpec) (Measurement, error) {
	return Job{Spec: spec}.run(context.Background())
}

func TestRunMusstiOnEML(t *testing.T) {
	m, err := runSpec(CompileSpec{App: "GHZ_n32", Compiler: "mussti"})
	if err != nil {
		t.Fatal(err)
	}
	if m.App != "GHZ_n32" || m.Compiler != "MUSS-TI" {
		t.Errorf("labels = %q/%q", m.App, m.Compiler)
	}
	if m.Qubits != 32 || m.TwoQubit != 31 {
		t.Errorf("qubits/2q = %d/%d", m.Qubits, m.TwoQubit)
	}
	if m.TimeUS <= 0 || m.Log10F >= 0 || m.CompileTime <= 0 {
		t.Errorf("degenerate measurement %+v", m)
	}
}

func TestRunMusstiOnGrid(t *testing.T) {
	m, err := runSpec(CompileSpec{App: "GHZ_n32", Compiler: "mussti", Grid: arch.MustNewGrid(2, 2, 12)})
	if err != nil {
		t.Fatal(err)
	}
	if m.FiberGates != 0 {
		t.Error("grid run produced fiber gates")
	}
}

func TestRunMusstiBadApp(t *testing.T) {
	if _, err := runSpec(CompileSpec{App: "Nope_n12", Compiler: "mussti"}); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestRunBaseline(t *testing.T) {
	m, err := runSpec(CompileSpec{App: "BV_n32", Compiler: "dai", Grid: arch.MustNewGrid(2, 2, 12)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Compiler != "QCCD-Dai" {
		t.Errorf("compiler label = %q", m.Compiler)
	}
}

// TestRunBaselineBadGrid: a grid too small for the app is an error, not a
// measurement.
func TestRunBaselineBadGrid(t *testing.T) {
	if _, err := runSpec(CompileSpec{App: "BV_n32", Compiler: "murali", Grid: arch.MustNewGrid(1, 2, 12)}); err == nil {
		t.Error("bad grid accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "A", "BB")
	tb.Add("x", 12)
	tb.Add("longer", 3.5)
	out := tb.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "longer") {
		t.Errorf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.5:     "0.5",
		1234.25: "1234.25",
		1e-9:    "1.0e-09",
		2.5e7:   "25000000",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestFormatLog10F(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{-0.1, "0.7943"},
		{-5, "1.0e-05"},
		{-100, "1.0e-100"},
		{-500, "1e-500"},
	}
	for _, c := range cases {
		if got := FormatLog10F(c.in); got != c.want {
			t.Errorf("FormatLog10F(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 9 {
		t.Fatalf("experiments = %d, want 9 (table2 + fig6..fig13)", len(exps))
	}
	for _, e := range exps {
		if e.Run == nil || e.ID == "" || e.Description == "" {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
	}
	if _, err := ByID("table2"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestEmlConfigClampsOptical(t *testing.T) {
	cfg := emlConfig(4, 8)
	if cfg.Modules != 4 || cfg.TrapCapacity != 8 {
		t.Errorf("emlConfig = %+v", cfg)
	}
	d, err := arch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range d.OpticalZones() {
		if d.Zone(z).Capacity > 8 {
			t.Errorf("optical capacity %d exceeds trap capacity 8", d.Zone(z).Capacity)
		}
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	// Re-derive one Table 2 row and check the paper's ordering: MUSS-TI
	// fewest shuttles, MQT most.
	app := "SQRT_n30"
	rows, cols, capacity := 2, 3, 8
	g := arch.MustNewGrid(rows, cols, capacity)
	get := func(compiler string) Measurement {
		m, err := runSpec(CompileSpec{App: app, Compiler: compiler, Grid: g})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ours, mur, dai, mqt := get("mussti"), get("murali"), get("dai"), get("mqt")
	if !(ours.Shuttles <= dai.Shuttles && dai.Shuttles <= mur.Shuttles && mur.Shuttles < mqt.Shuttles) {
		t.Errorf("shuttle ordering broken: ours=%d dai=%d murali=%d mqt=%d",
			ours.Shuttles, dai.Shuttles, mur.Shuttles, mqt.Shuttles)
	}
	if ours.Log10F < mqt.Log10F {
		t.Errorf("MUSS-TI fidelity below MQT: %v vs %v", ours.Log10F, mqt.Log10F)
	}
}

func TestTable2Runs(t *testing.T) {
	out, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Grid 2x2", "Grid 2x3", "Adder_n32", "SQRT_n30"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestFig6SmallRuns(t *testing.T) {
	out, err := Fig6("small")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Small Scale") || strings.Contains(out, "Middle Scale") {
		t.Errorf("scale filter broken:\n%s", out)
	}
	if !strings.Contains(out, "average shuttle reduction") {
		t.Error("summary line missing")
	}
}

func TestFig11Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 runs 128-qubit compiles")
	}
	out, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SQRT_n128", "BV_n128", "Trivial", "SABRE+SWAP"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig11 output missing %q", want)
		}
	}
}

func TestIdealParams(t *testing.T) {
	p := idealParams(true, false)
	if !p.PerfectGates || p.PerfectShuttle {
		t.Error("idealParams(gates) wrong")
	}
	p = idealParams(false, true)
	if p.PerfectGates || !p.PerfectShuttle {
		t.Error("idealParams(shuttle) wrong")
	}
}

func TestMean(t *testing.T) {
	if mean(nil) != 0 {
		t.Error("mean(nil) != 0")
	}
	if got := mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v, want 2", got)
	}
}
