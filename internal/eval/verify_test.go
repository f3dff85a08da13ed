package eval

import (
	"context"
	"fmt"
	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
	"mussti/internal/sim"
)

// TestGeneratedSweepVerifies compiles every generated benchmark family at
// sizes from 16 to 299 qubits with each built-in compiler, trace on, and
// replays every schedule through the independent verifier. MUSS-TI runs on
// the paper's default device for the size; the grid baselines run on a
// square grid of side max(2, ⌈√⌈n/10⌉⌉) with trap capacity 16. The paper
// suites cover a few points of this space; the sweep reaches the ones they
// miss, such as SWAP pairs whose next program gate is with each other.
func TestGeneratedSweepVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-benchmark sweep skipped in -short")
	}
	device := func(n int) (arch.Target, *arch.Device) {
		d := arch.MustNew(arch.DefaultConfig(n))
		return d, d
	}
	grid := func(n int) (arch.Target, *arch.Device) {
		side := 2
		for side*side < (n+9)/10 {
			side++
		}
		g := arch.MustNewGrid(side, side, 16)
		return g, g.Device()
	}
	compilers := []struct {
		name string
		// target builds the machine for an n-qubit circuit and the device
		// view the verifier replays the schedule on.
		target func(n int) (arch.Target, *arch.Device)
	}{
		{"mussti", device},
		{"murali", grid},
		{"dai", grid},
		{"mqt", grid},
	}
	sizes := []int{16, 24, 32, 40, 48, 64, 100, 128, 150, 200, 256, 299}
	for _, tc := range compilers {
		comp, err := core.LookupCompiler(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfigFor(comp)
		cfg.Trace = true
		for _, fam := range bench.Families() {
			for _, n := range sizes {
				name := fmt.Sprintf("%s_n%d", fam, n)
				c, err := bench.ByName(name)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				target, d := tc.target(n)
				res, err := comp.Compile(context.Background(), c, target, &cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", tc.name, name, err)
				}
				if err := sim.VerifySchedule(c, sim.ZonesOfDevice(d), res.InitialMapping, res.Trace); err != nil {
					t.Errorf("%s/%s: schedule fails verification: %v", tc.name, name, err)
				}
			}
		}
	}
}
