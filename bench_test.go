// Benchmark harness: one testing.B benchmark per table and figure of the
// MUSS-TI paper. Each benchmark regenerates the corresponding experiment;
// run the full evaluation with
//
//	go test -bench=. -benchmem
//
// or a single artefact with e.g. -bench=BenchmarkFig7. The experiments
// print nothing here; cmd/experiments renders the same rows as text.
package mussti_test

import (
	"context"
	"sync"
	"testing"

	"mussti"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := mussti.RunExperiment(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// BenchmarkTable2 regenerates Table 2: the small-scale suite on Grid 2x2
// (capacity 12) and Grid 2x3 (capacity 8) under all four compilers.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig6 regenerates Fig. 6: the small/medium/large architectural
// comparison (shuttles, execution time, fidelity) of MUSS-TI vs the Dai and
// Murali grid compilers.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Fig. 7: the EML-QCCD trap-capacity sweep
// (12–20) against final fidelity.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Fig. 8: the ablation of compilation techniques
// (Trivial / SWAP Insert / SABRE / SABRE+SWAP Insert).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Fig. 9: the look-ahead-window sweep k ∈ {4..12}.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig. 10: compilation-time scalability from
// ~128 to ~300 qubits for Adder/BV/GHZ/QAOA.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Fig. 11: the compilation-time vs fidelity
// trade-off of the four technique combinations.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Fig. 12: one vs two entanglement zones on the
// large-scale applications.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Fig. 13: the optimality analysis against the
// perfect-gate and perfect-shuttle idealisations.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkLRU regenerates the extension study backing §3.2's claim that
// the LRU replacement scheduler is near-optimal (vs FIFO/random/Belady).
func BenchmarkLRU(b *testing.B) { benchExperiment(b, "lru") }

// BenchmarkPorts regenerates the optical-port-limit extension sweep
// quantifying §2.2's "minimal number of optical ports" design pressure.
func BenchmarkPorts(b *testing.B) { benchExperiment(b, "ports") }

// BenchmarkRouting regenerates the routing look-ahead ablation (the
// attraction term this implementation adds to the multi-level rule).
func BenchmarkRouting(b *testing.B) { benchExperiment(b, "routing") }

// suiteIDs is the multi-experiment bundle behind the suite benchmarks: the
// three fastest experiments, together a few hundred independent
// measurements.
var suiteIDs = []string{"table2", "lru", "routing"}

// BenchmarkSuiteSequential runs the bundle strictly sequentially — the
// harness's behaviour before the concurrent runner existed (modulo the
// benchmark-circuit cache, which both paths share).
func BenchmarkSuiteSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, id := range suiteIDs {
			if _, err := mussti.RunExperimentContext(context.Background(), id, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSuiteParallel runs the same bundle with the experiments launched
// concurrently over one shared GOMAXPROCS-sized runner, the cmd/experiments
// all-mode configuration. Compare against BenchmarkSuiteSequential for the
// wall-clock speedup; on a single-core machine the two coincide.
func BenchmarkSuiteParallel(b *testing.B) {
	r := mussti.NewRunner(0)
	for i := 0; i < b.N; i++ {
		errs := make([]error, len(suiteIDs))
		var wg sync.WaitGroup
		for j, id := range suiteIDs {
			wg.Add(1)
			go func(j int, id string) {
				defer wg.Done()
				_, errs[j] = mussti.RunExperimentContext(context.Background(), id, r)
			}(j, id)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileQFT32 measures the compiler itself on the densest small
// benchmark (the unit of work behind every table cell).
func BenchmarkCompileQFT32(b *testing.B) {
	c := mussti.Benchmark("QFT_n32")
	benchmarkCompile(b, c)
}

// BenchmarkCompileSQRT299 measures the compiler on the largest benchmark
// (the Fig. 10 worst case).
func BenchmarkCompileSQRT299(b *testing.B) {
	c := mussti.Benchmark("SQRT_n299")
	benchmarkCompile(b, c)
}

// benchmarkCompile compiles c on its default-sized EML device through the
// registry's "mussti" compiler with the paper's headline configuration.
func benchmarkCompile(b *testing.B, c *mussti.Circuit) {
	dev := mussti.NewDevice(mussti.DeviceConfigFor(c.NumQubits))
	comp, err := mussti.LookupCompiler("mussti")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Compile(ctx, c, dev, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDAGBuild measures dependency-graph construction (§3.1, O(g)).
func BenchmarkDAGBuild(b *testing.B) {
	c := mussti.Benchmark("SQRT_n299")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(c.TwoQubitGates()); got == 0 {
			b.Fatal("no gates")
		}
	}
}
