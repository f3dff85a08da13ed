package core

import (
	"context"

	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
	"mussti/internal/sim"
)

// TestCompiledSchedulesVerify replays every small-suite schedule through
// the independent verifier (internal/sim.VerifySchedule): occupancy, gate
// legality, per-qubit program order, inserted-SWAP bookkeeping and timing
// must all check out for both mapping strategies, on both the EML device
// and the standard grid.
func TestCompiledSchedulesVerify(t *testing.T) {
	devices := []struct {
		name string
		d    *arch.Device
	}{
		{"eml", arch.MustNew(arch.DefaultConfig(32))},
		{"grid2x2", arch.MustNewGrid(2, 2, 12).Device()},
	}
	for _, dev := range devices {
		for _, name := range bench.SmallSuite() {
			for _, opts := range []CompileConfig{
				{Mapping: MappingTrivial, Trace: true},
				{Mapping: MappingSABRE, SwapInsertion: true, Trace: true},
			} {
				c := bench.MustByName(name)
				res, err := registryCompile(context.Background(), c, dev.d, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", dev.name, name, err)
				}
				zones := sim.ZonesOfDevice(dev.d)
				if err := sim.VerifySchedule(c, zones, res.InitialMapping, res.Trace); err != nil {
					t.Errorf("%s/%s (%v): schedule fails verification: %v",
						dev.name, name, opts.Mapping, err)
				}
			}
		}
	}
}

// TestCompiledMediumScheduleVerifies exercises the verifier on one
// medium-scale schedule with SWAP insertion active (fiber triples present).
func TestCompiledMediumScheduleVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("medium verification skipped in -short")
	}
	c := bench.MustByName("SQRT_n117")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	opts := *NewCompileConfig()
	opts.Trace = true
	res, err := registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.VerifySchedule(c, sim.ZonesOfDevice(d), res.InitialMapping, res.Trace); err != nil {
		t.Fatal(err)
	}
}
