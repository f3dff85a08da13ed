// Command benchjson measures the compilation hot paths with
// testing.Benchmark and writes the results as JSON — the per-PR performance
// trajectory record committed as BENCH_compile.json at the repo root:
//
//	go run ./cmd/benchjson                  # rewrites BENCH_compile.json
//	go run ./cmd/benchjson -o -             # print to stdout
//
// The benchmarked units mirror the microbenchmarks under internal/... (one
// full compile, DAG construction, the frontier drain, one look-ahead window
// scan, one engine shuttle) so the committed trajectory and `go test -bench`
// agree on what is being measured.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"mussti"
	"mussti/internal/circuit/bench"
	"mussti/internal/dag"
	"mussti/internal/physics"
	"mussti/internal/sim"
)

type entry struct {
	// Name identifies the benchmarked unit, e.g. "compile/SQRT_n299".
	Name string `json:"name"`
	// Iterations is the b.N testing.Benchmark settled on.
	Iterations int `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the usual -benchmem triple.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// NumCPU and GOMAXPROCS pin the parallelism this entry ran under, so
	// numbers from different machines (or a later -gomaxprocs run) are never
	// compared as if they were like for like. Recorded per entry because
	// GOMAXPROCS is mutable at runtime.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

type report struct {
	Tool       string  `json:"tool"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Benchmarks []entry `json:"benchmarks"`
}

func measure(name string, fn func(b *testing.B)) entry {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return entry{
		Name:        name,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
}

// compileBench compiles the named application on its default-sized EML
// device with the paper's headline options — the unit of work behind every
// table cell and the Fig. 10 compile-time curves.
func compileBench(app string) func(b *testing.B) {
	return func(b *testing.B) {
		c := bench.MustByName(app)
		dev := mussti.NewDevice(mussti.DeviceConfigFor(c.NumQubits))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mussti.Compile(c, dev, mussti.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// compileTrivialBench is compileBench with the trivial initial mapping: one
// scheduling pass instead of SABRE's four. The gap between this entry and
// compile/<app> is the mapping search's cost — the overhead the shared
// per-circuit prep (DAG + scheduler reuse across probe passes) trims.
func compileTrivialBench(app string) func(b *testing.B) {
	return func(b *testing.B) {
		c := bench.MustByName(app)
		dev := mussti.NewDevice(mussti.DeviceConfigFor(c.NumQubits))
		opts := mussti.DefaultOptions()
		opts.Mapping = mussti.MappingTrivial
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mussti.Compile(c, dev, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// compileBatchBench compiles `variants` look-ahead sweeps of one circuit
// through CompileBatch: one shared prep replayed for every variant. Compare
// ns/op against variants × compile/<app> to see the shared-prep saving.
func compileBatchBench(app string, nvariants int) func(b *testing.B) {
	return func(b *testing.B) {
		c := bench.MustByName(app)
		dev := mussti.NewDevice(mussti.DeviceConfigFor(c.NumQubits))
		variants := make([]mussti.BatchVariant, nvariants)
		for i := range variants {
			variants[i] = mussti.BatchVariant{
				Target: dev,
				Config: mussti.NewCompileConfig(mussti.WithLookAhead(i + 1)),
			}
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mussti.CompileBatch(ctx, c, variants); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// distBench measures dispatch throughput through a two-worker fleet of
// re-executed benchjson processes in -worker mode, each job a trivial
// sub-millisecond compile with the worker's cache disabled (every envelope
// pays a real compile: the entry measures transport + compile, never memo
// hits). pipeline is the per-worker window: 1 is lockstep — one job on the
// wire per worker, the pre-pipelining shape — so ns/op(roundtrip) /
// ns/op(pipelined) is the multiplexing speedup in jobs/s. Concurrent
// submitters keep every window full; the coordinator coalesces their
// window-mates into batched envelopes exactly as a -dist experiment run
// would.
func distBench(pipeline int) func(b *testing.B) {
	return func(b *testing.B) {
		exe, err := os.Executable()
		if err != nil {
			b.Fatal(err)
		}
		coord, err := mussti.NewCoordinator(2, []string{exe, "-worker"},
			&mussti.CoordinatorOptions{Pipeline: pipeline})
		if err != nil {
			b.Fatal(err)
		}
		defer coord.Close()
		spec := mussti.CompileSpec{App: "GHZ_n32", Compiler: "mussti",
			Config: mussti.NewCompileConfig(mussti.WithMapping(mussti.MappingTrivial))}
		job := mussti.EvalJob{Spec: &spec}
		ctx := context.Background()
		// Absorb process start and first-compile warmup outside the timer.
		if _, err := coord.RunJob(ctx, job); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.SetParallelism(8) // 8×GOMAXPROCS submitters: windows stay full at any pipeline
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := coord.RunJob(ctx, job); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
}

func main() {
	out := flag.String("o", "BENCH_compile.json", `output path ("-" for stdout)`)
	maxprocs := flag.Int("gomaxprocs", 4, "GOMAXPROCS to measure at (the dist entries' concurrent submitters need >1; 0 = leave the runtime default)")
	worker := flag.Bool("worker", false, "run as a dist worker process for the dist/* entries (spawned by benchjson itself, not for direct use)")
	flag.Parse()
	if *worker {
		r := mussti.NewRunner(1)
		r.DisableCache()
		if err := mussti.ServeWorker(context.Background(), os.Stdin, os.Stdout, r); err != nil {
			os.Exit(1)
		}
		return
	}
	if *maxprocs > 0 {
		runtime.GOMAXPROCS(*maxprocs)
	}

	big := bench.MustByName("SQRT_n299")
	r := report{Tool: "benchjson", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	r.Benchmarks = []entry{
		measure("compile/QFT_n32", compileBench("QFT_n32")),
		measure("compile/QFT_n32-trivialmap", compileTrivialBench("QFT_n32")),
		measure("compile/SQRT_n299", compileBench("SQRT_n299")),
		measure("compilebatch/QFT_n32x8", compileBatchBench("QFT_n32", 8)),
		measure("dist/roundtrip", distBench(1)),
		measure("dist/pipelined", distBench(4)),
		measure("dag/build/SQRT_n299", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if g := dag.Build(big); g.Done() {
					b.Fatal("empty graph")
				}
			}
		}),
		measure("dag/drain/SQRT_n299", func(b *testing.B) {
			g := dag.Build(big)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reset()
				for !g.Done() {
					g.Execute(g.Frontier()[0])
				}
			}
		}),
		measure("dag/walkahead8/SQRT_n299", func(b *testing.B) {
			g := dag.Build(big)
			for g.Remaining() > len(g.Nodes)/2 {
				g.Execute(g.Frontier()[0])
			}
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				g.WalkAhead(8, func(_ int, n *dag.Node) { sink += n.ID })
			}
			_ = sink
		}),
		measure("sim/move", func(b *testing.B) {
			zones := []sim.ZoneInfo{
				{Capacity: 16, GateCapable: true, Module: 0},
				{Capacity: 16, GateCapable: true, Module: 0},
			}
			e := sim.NewEngine(zones, 16, physics.Default())
			for q := 0; q < 16; q++ {
				if err := e.Place(q, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Move whichever ion is mid-chain so every iteration pays
				// the same chain-swap cost (a fixed qubit would settle at
				// the chain tail and measure the swap-free best case).
				q := e.Chain(0)[8]
				if err := e.Move(q, 1, 100); err != nil {
					b.Fatal(err)
				}
				if err := e.Move(q, 0, 100); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}

	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(r.Benchmarks), *out)
}
