package core

import (
	"fmt"
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
			for _, opts := range []Options{
				{Mapping: MappingTrivial, Trace: true},
				{Mapping: MappingSABRE, SwapInsertion: true, Trace: true},
			} {
				c := bench.MustByName(name)
				res, err := Compile(c, dev.d, opts)
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
	opts := DefaultOptions()
	opts.Trace = true
	res, err := Compile(c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.VerifySchedule(c, sim.ZonesOfDevice(d), res.InitialMapping, res.Trace); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedSweepVerifies compiles every generated benchmark family at
// sizes from 16 to 299 qubits with the default options on the paper's
// default device for that size, and replays each schedule through the
// independent verifier. The paper suites cover a few points of this
// space; the sweep reaches the ones they miss, such as SWAP pairs whose
// next program gate is with each other.
func TestGeneratedSweepVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-benchmark sweep skipped in -short")
	}
	sizes := []int{16, 24, 32, 40, 48, 64, 100, 128, 150, 200, 256, 299}
	for _, fam := range bench.Families() {
		for _, n := range sizes {
			name := fmt.Sprintf("%s_n%d", fam, n)
			c, err := bench.ByName(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d := arch.MustNew(arch.DefaultConfig(n))
			opts := DefaultOptions()
			opts.Trace = true
			res, err := Compile(c, d, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := sim.VerifySchedule(c, sim.ZonesOfDevice(d), res.InitialMapping, res.Trace); err != nil {
				t.Errorf("%s: schedule fails verification: %v", name, err)
			}
		}
	}
}
