package core

import (
	"context"

	"math"
	"math/rand"
	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/quantum"
	"mussti/internal/sim"
)

// compileAndExtract compiles c with tracing, verifies the schedule and
// returns the executed gate order.
func compileAndExtract(t *testing.T, c *circuit.Circuit, d *arch.Device, opts CompileConfig) []int {
	t.Helper()
	opts.Trace = true
	res, err := registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	order, err := sim.VerifyAndExtract(c, sim.ZonesOfDevice(d), res.InitialMapping, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// TestScheduleSemanticEquivalence is the strongest end-to-end check in the
// repository: for verification-sized circuits, simulating the gates in the
// *scheduled* order must yield exactly the program's quantum state. This
// holds because the scheduler only reorders gates with disjoint supports
// (the dependency graph forbids anything else) and inserted SWAPs are
// transparent at the logical level — and the statevector simulator
// confirms it numerically.
func TestScheduleSemanticEquivalence(t *testing.T) {
	smallDevice := func(n int) *arch.Device {
		cfg := arch.Config{
			Modules: 2, TrapCapacity: 4,
			StorageZones: 1, OperationZones: 1, OpticalZones: 1,
		}
		_ = n
		return arch.MustNew(cfg)
	}

	builders := []struct {
		name  string
		build func() *circuit.Circuit
	}{
		{"ghz8", func() *circuit.Circuit {
			c := circuit.New("ghz8", 8)
			c.H(0)
			for i := 0; i+1 < 8; i++ {
				c.CX(i, i+1)
			}
			return c
		}},
		{"qft6", func() *circuit.Circuit {
			c := circuit.New("qft6", 6)
			for i := 0; i < 6; i++ {
				c.H(i)
				for j := i + 1; j < 6; j++ {
					c.CP(math.Pi/math.Pow(2, float64(j-i)), j, i)
				}
			}
			return c
		}},
		{"random8", func() *circuit.Circuit {
			rng := rand.New(rand.NewSource(7))
			c := circuit.New("random8", 8)
			for i := 0; i < 60; i++ {
				switch rng.Intn(4) {
				case 0:
					c.H(rng.Intn(8))
				case 1:
					c.RZ(rng.Float64()*3, rng.Intn(8))
				default:
					a, b := rng.Intn(8), rng.Intn(8)
					if a != b {
						c.MS(a, b)
					}
				}
			}
			return c
		}},
	}

	for _, tc := range builders {
		for _, opts := range []CompileConfig{
			{Mapping: MappingTrivial},
			{Mapping: MappingSABRE, SwapInsertion: true},
		} {
			c := tc.build()
			d := smallDevice(c.NumQubits)
			order := compileAndExtract(t, c, d, opts)

			want, err := quantum.Run(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := quantum.Run(c, order)
			if err != nil {
				t.Fatal(err)
			}
			if f := want.Fidelity(got); math.Abs(f-1) > 1e-9 {
				t.Errorf("%s (%v): scheduled order changes the state, fidelity %v",
					tc.name, opts.Mapping, f)
			}
		}
	}
}

// TestScheduleExecutesEveryGateExactlyOnce checks the extracted order is a
// permutation of the program.
func TestScheduleExecutesEveryGateExactlyOnce(t *testing.T) {
	c := circuit.New("perm", 6)
	for i := 0; i < 6; i++ {
		c.H(i)
	}
	for i := 0; i+1 < 6; i++ {
		c.MS(i, i+1)
	}
	for i := 0; i < 6; i++ {
		c.Measure(i)
	}
	d := arch.MustNew(arch.Config{Modules: 2, TrapCapacity: 4, StorageZones: 1, OperationZones: 1, OpticalZones: 1})
	order := compileAndExtract(t, c, d, *NewCompileConfig())
	seen := make([]bool, len(c.Gates))
	for _, gi := range order {
		if seen[gi] {
			t.Fatalf("gate %d executed twice", gi)
		}
		seen[gi] = true
	}
	for gi, ok := range seen {
		if !ok {
			t.Errorf("gate %d never executed", gi)
		}
	}
}
