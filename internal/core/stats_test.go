package core

import (
	"context"

	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
)

func TestSchedStatsAccounting(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(32))
	res, err := registryCompile(context.Background(), c, d, *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	got := res.Stats
	// Every two-qubit gate either took the fast path or was routed.
	if got.ExecutableFast+got.Routed != st.TwoQubit {
		t.Errorf("fast %d + routed %d != 2q gates %d",
			got.ExecutableFast, got.Routed, st.TwoQubit)
	}
	if got.SwapsInserted != res.Metrics.InsertedSwaps {
		t.Errorf("stats swaps %d != metrics swaps %d", got.SwapsInserted, res.Metrics.InsertedSwaps)
	}
	if got.SwapsInserted > got.SwapsConsidered {
		t.Errorf("inserted %d > considered %d", got.SwapsInserted, got.SwapsConsidered)
	}
}

func TestSchedStatsEvictionsDriveShuttles(t *testing.T) {
	// On a congested device, evictions must show up and each eviction is
	// at least one shuttle.
	cfg := arch.DefaultConfig(0)
	cfg.Modules = 2
	cfg.TrapCapacity = 6
	d := arch.MustNew(cfg)
	c := bench.MustByName("SQRT_n30")
	res, err := registryCompile(context.Background(), c, d, CompileConfig{Mapping: MappingTrivial})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evictions == 0 {
		t.Error("no evictions on a congested device")
	}
	if res.Metrics.Shuttles < res.Stats.Evictions {
		t.Errorf("shuttles %d < evictions %d", res.Metrics.Shuttles, res.Stats.Evictions)
	}
}

func TestSchedStatsZeroOnFreeCircuit(t *testing.T) {
	// GHZ on a roomy grid device: everything should co-locate eventually
	// but never consider SWAPs (no optical zones on a grid).
	g := arch.MustNewGrid(2, 2, 12)
	c := bench.MustByName("GHZ_n32")
	res, err := registryCompile(context.Background(), c, g.Device(), *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SwapsConsidered != 0 || res.Stats.SwapsInserted != 0 {
		t.Errorf("grid run considered SWAP insertion: %+v", res.Stats)
	}
}
