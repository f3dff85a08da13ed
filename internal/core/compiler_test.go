package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/physics"
)

// fakeCompiler is a minimal Compiler for registry tests.
type fakeCompiler struct{ name string }

func (f fakeCompiler) Name() string { return f.name }
func (f fakeCompiler) Compile(ctx context.Context, c *circuit.Circuit, t arch.Target, cfg *CompileConfig) (*Result, error) {
	return &Result{}, nil
}

func TestRegistryHasMussti(t *testing.T) {
	c, err := LookupCompiler("mussti")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "mussti" {
		t.Errorf("Name = %q, want mussti", c.Name())
	}
	if CompilerLabel(c) != "MUSS-TI" {
		t.Errorf("label = %q, want MUSS-TI", CompilerLabel(c))
	}
	if cfg := DefaultConfigFor(c); cfg != *NewCompileConfig() {
		t.Errorf("DefaultConfigFor(mussti) = %+v, want NewCompileConfig()", cfg)
	}
	// This package registers "mussti" first; registration order is the
	// deterministic order Compilers() reports.
	if names := CompilerNames(); len(names) == 0 || names[0] != "mussti" {
		t.Errorf("CompilerNames() = %v, want mussti first", names)
	}
}

func TestRegisterCompilerDuplicate(t *testing.T) {
	if err := RegisterCompiler(fakeCompiler{name: "dup-test"}); err != nil {
		t.Fatal(err)
	}
	err := RegisterCompiler(fakeCompiler{name: "dup-test"})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate registration: err = %v, want already-registered error", err)
	}
	// Registration never replaces: the original stays resolvable.
	if _, err := LookupCompiler("dup-test"); err != nil {
		t.Error(err)
	}
}

func TestRegisterCompilerInvalid(t *testing.T) {
	if err := RegisterCompiler(nil); err == nil {
		t.Error("nil compiler accepted")
	}
	if err := RegisterCompiler(fakeCompiler{name: ""}); err == nil {
		t.Error("empty-name compiler accepted")
	}
}

func TestLookupCompilerUnknown(t *testing.T) {
	_, err := LookupCompiler("no-such-compiler")
	if err == nil {
		t.Fatal("unknown name resolved")
	}
	// The error teaches the registered names, so CLI typos self-explain.
	if !strings.Contains(err.Error(), "mussti") {
		t.Errorf("error does not list registered names: %v", err)
	}
}

// TestCompilersConcurrent hammers the registry from many goroutines —
// readers and writers together — so the race detector can prove
// Compilers()/LookupCompiler are safe against concurrent registration.
func TestCompilersConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if err := RegisterCompiler(fakeCompiler{name: fmt.Sprintf("conc-test-%d", i)}); err != nil {
				t.Error(err)
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				for _, c := range Compilers() {
					if c.Name() == "" {
						t.Error("registered compiler with empty name")
						return
					}
				}
				if _, err := LookupCompiler("mussti"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every concurrent registration must have landed exactly once.
	seen := map[string]int{}
	for _, name := range CompilerNames() {
		seen[name]++
	}
	for i := 0; i < 8; i++ {
		if n := seen[fmt.Sprintf("conc-test-%d", i)]; n != 1 {
			t.Errorf("conc-test-%d registered %d times, want 1", i, n)
		}
	}
}

// TestMusstiCompilerTargets: the registry "mussti" accepts both machine
// shapes, gives a nil config the paper defaults, and rejects anything else.
func TestMusstiCompilerTargets(t *testing.T) {
	comp, err := LookupCompiler("mussti")
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("ghz4", 4)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	c.CX(2, 3)
	ctx := context.Background()

	dev := arch.MustNew(arch.DefaultConfig(4))
	viaIface, err := comp.Compile(ctx, c, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaDefaults, err := comp.Compile(ctx, c, dev, NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	if viaIface.Metrics != viaDefaults.Metrics {
		t.Errorf("nil config and NewCompileConfig() metrics differ:\n%+v\n%+v", viaIface.Metrics, viaDefaults.Metrics)
	}

	g := arch.MustNewGrid(2, 2, 4)
	if _, err := comp.Compile(ctx, c, g, nil); err != nil {
		t.Errorf("grid target rejected: %v", err)
	}
	if _, err := comp.Compile(ctx, c, nil, nil); err == nil {
		t.Error("nil target accepted")
	}
}

func TestNewCompileConfig(t *testing.T) {
	cfg := NewCompileConfig()
	paper := CompileConfig{Mapping: MappingSABRE, SwapInsertion: true, LookAhead: 8, SwapThreshold: 4, Params: physics.Default()}
	if *cfg != paper {
		t.Errorf("NewCompileConfig() = %+v, want the paper defaults %+v", *cfg, paper)
	}
	cfg = NewCompileConfig(
		WithMapping(MappingTrivial),
		WithSwapInsertion(false),
		WithLookAhead(6),
		WithSwapThreshold(5),
		WithReplacement(ReplaceFIFO),
		WithTrace(),
		WithRoutingLookAhead(false),
	)
	want := paper
	want.Mapping = MappingTrivial
	want.SwapInsertion = false
	want.LookAhead = 6
	want.SwapThreshold = 5
	want.Replacement = ReplaceFIFO
	want.Trace = true
	want.DisableRoutingLookAhead = true
	if *cfg != want {
		t.Errorf("options misapplied:\ngot  %+v\nwant %+v", *cfg, want)
	}
}
