package eval

import (
	"strings"
	"testing"

	"mussti/internal/core"
)

// TestCheapExperimentsEndToEnd runs the experiments that complete in about
// a second so the experiment plumbing itself stays covered; the heavy
// figures run through bench_test.go and cmd/experiments.
func TestCheapExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment end-to-end runs skipped in -short")
	}
	for _, tc := range []struct {
		id   string
		want []string
	}{
		{"fig10", []string{"Adder", "n=300"}},
		{"lru", []string{"shut(lru)", "shut(belady)", "Belady"}},
		{"routing", []string{"with", "without", "delta%"}},
	} {
		e, err := ByID(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q", tc.id, w)
			}
		}
	}
}

func TestFig8AblationOrderingOnHeavyApp(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run skipped in -short")
	}
	// The combined strategy must beat trivial on the most communication-
	// heavy medium app — the paper's central Fig. 8 claim.
	trivial, err := runSpec(CompileSpec{App: "SQRT_n117", Compiler: "mussti",
		Config: &ablationConfigs[0].Opts})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := runSpec(CompileSpec{App: "SQRT_n117", Compiler: "mussti",
		Config: &ablationConfigs[3].Opts})
	if err != nil {
		t.Fatal(err)
	}
	if combined.Log10F < trivial.Log10F {
		t.Errorf("SABRE+SWAP (%.1f) worse than trivial (%.1f) on SQRT_n117",
			combined.Log10F, trivial.Log10F)
	}
}

func TestFig13EnvelopesBoundMussti(t *testing.T) {
	if testing.Short() {
		t.Skip("optimality run skipped in -short")
	}
	// Idealised physics can only help: both envelopes must sit at or
	// above the realistic run for a representative app.
	base, err := runSpec(CompileSpec{App: "GHZ_n128", Compiler: "mussti", Config: &core.CompileConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name           string
		gates, shuttle bool
	}{{"perfect gate", true, false}, {"perfect shuttle", false, true}} {
		ideal := core.CompileConfig{Params: idealParams(mode.gates, mode.shuttle)}
		m, err := runSpec(CompileSpec{App: "GHZ_n128", Compiler: "mussti", Config: &ideal})
		if err != nil {
			t.Fatal(err)
		}
		if m.Log10F < base.Log10F-1e-9 {
			t.Errorf("%s fidelity %.2f below realistic %.2f", mode.name, m.Log10F, base.Log10F)
		}
	}
}
