package core

import (
	"context"

	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
)

func TestReplacementPolicyString(t *testing.T) {
	cases := map[ReplacementPolicy]string{
		ReplaceLRU: "lru", ReplaceFIFO: "fifo", ReplaceRandom: "random",
		ReplaceBelady: "belady", ReplacementPolicy(9): "unknown",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestAllPoliciesCompleteAndVerify(t *testing.T) {
	d := arch.MustNew(arch.DefaultConfig(32))
	c := bench.MustByName("QFT_n32")
	st := c.Stats()
	for _, pol := range []ReplacementPolicy{ReplaceLRU, ReplaceFIFO, ReplaceRandom, ReplaceBelady} {
		opts := CompileConfig{Mapping: MappingTrivial, Replacement: pol}
		res, err := registryCompile(context.Background(), c, d, opts)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if got := res.Metrics.Gates2 + res.Metrics.FiberGates; got != st.TwoQubit {
			t.Errorf("%v: executed %d 2q gates, want %d", pol, got, st.TwoQubit)
		}
	}
}

func TestPoliciesAreDeterministic(t *testing.T) {
	d := arch.MustNew(arch.DefaultConfig(30))
	c := bench.MustByName("SQRT_n30")
	for _, pol := range []ReplacementPolicy{ReplaceRandom, ReplaceFIFO} {
		opts := CompileConfig{Mapping: MappingTrivial, Replacement: pol}
		a, err := registryCompile(context.Background(), c, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := registryCompile(context.Background(), c, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Metrics.Shuttles != b.Metrics.Shuttles {
			t.Errorf("%v: nondeterministic shuttle counts %d vs %d", pol, a.Metrics.Shuttles, b.Metrics.Shuttles)
		}
	}
}

func TestLRUCompetitiveWithBelady(t *testing.T) {
	// The paper claims LRU is near-optimal; the clairvoyant Belady policy
	// bounds the achievable shuttle count. LRU must stay within a small
	// constant factor on the communication-heavy benchmark.
	d := arch.MustNew(arch.DefaultConfig(30))
	c := bench.MustByName("SQRT_n30")
	run := func(pol ReplacementPolicy) int {
		res, err := registryCompile(context.Background(), c, d, CompileConfig{Mapping: MappingTrivial, Replacement: pol})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Shuttles
	}
	lru, belady := run(ReplaceLRU), run(ReplaceBelady)
	if lru > 2*belady+16 {
		t.Errorf("LRU %d shuttles not competitive with Belady %d", lru, belady)
	}
}
