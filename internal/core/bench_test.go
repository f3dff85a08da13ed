package core

import (
	"context"
	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
)

// BenchmarkSchedulerRun measures one full scheduling pass (no SABRE probes,
// no SWAP insertion) over the densest small benchmark — the per-step cost of
// the frontier sweep, routing, eviction and look-ahead machinery in
// isolation from the mapping search.
func BenchmarkSchedulerRun(b *testing.B) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	opts := Options{Mapping: MappingTrivial}.withDefaults()
	initial, err := trivialMapping(c.NumQubits, d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newScheduler(context.Background(), c, d, opts, initial)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerStep isolates the steady-state scheduler step by
// amortising setup over the drain: ns/op ≈ cost of (frontier read + route +
// execute) × gates. Allocations here are the ones ISSUE 4 drives to zero.
func BenchmarkSchedulerStep(b *testing.B) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	opts := Options{Mapping: MappingTrivial}.withDefaults()
	initial, err := trivialMapping(c.NumQubits, d)
	if err != nil {
		b.Fatal(err)
	}
	gates := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newScheduler(context.Background(), c, d, opts, initial)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.run(); err != nil {
			b.Fatal(err)
		}
		gates += s.executed
	}
	b.StopTimer()
	if gates > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(gates), "ns/gate")
	}
}

// BenchmarkSchedulerPassFresh rebuilds the per-circuit prep (DAG, per-qubit
// gate lists, next-use tables) for every scheduling pass — the behaviour
// every SABRE probe pass had before prep reuse. Compare with
// BenchmarkSchedulerPassReuse for the per-pass saving.
func BenchmarkSchedulerPassFresh(b *testing.B) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	opts := Options{Mapping: MappingTrivial}.withDefaults()
	initial, err := trivialMapping(c.NumQubits, d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newSchedulerWith(context.Background(), newPrep(c), d, opts, initial)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerPassReuse replays one shared prep across passes via
// Graph.Reset — what CompileContext now does for the SABRE forward probe
// and both candidate production runs.
func BenchmarkSchedulerPassReuse(b *testing.B) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	opts := Options{Mapping: MappingTrivial}.withDefaults()
	initial, err := trivialMapping(c.NumQubits, d)
	if err != nil {
		b.Fatal(err)
	}
	p := newPrep(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newSchedulerWith(context.Background(), p, d, opts, initial)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileSABRE is the full headline compile — SABRE probe passes
// plus both candidate runs — whose cost the prep reuse trims: of its four
// scheduling passes, three replay one prep.
func BenchmarkCompileSABRE(b *testing.B) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileContext(context.Background(), c, d, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileBatch compiles an 8-variant look-ahead sweep through one
// CompileBatch call: one shared prep for all eight. Compare against 8×
// BenchmarkCompileSABRE for the shared-prep saving.
func BenchmarkCompileBatch(b *testing.B) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	variants := make([]BatchVariant, 8)
	for i := range variants {
		variants[i] = BatchVariant{Target: d, Config: NewCompileConfig(WithLookAhead(i + 1))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileBatch(context.Background(), c, variants); err != nil {
			b.Fatal(err)
		}
	}
}
