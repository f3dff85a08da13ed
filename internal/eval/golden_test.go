package eval

import (
	"context"
	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
)

// TestWrapperRegistryByteIdentical: table2 rendered through the plan path
// (CompileSpec jobs run by the harness) is byte-identical to the same table
// computed by calling each registry compiler directly on the table's grids.
func TestWrapperRegistryByteIdentical(t *testing.T) {
	p, err := table2Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, ms, err := p.ExecuteCollect(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute every cell by direct Compile calls, in the plan's job order,
	// filling exactly the fields the renderer reads.
	var manual []Measurement
	for _, st := range table2Structures {
		g := arch.MustNewGrid(st.Rows, st.Cols, st.Capacity)
		for _, app := range bench.SmallSuite() {
			c, err := bench.ByName(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"murali", "dai", "mqt", "mussti"} {
				comp, err := core.LookupCompiler(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := comp.Compile(context.Background(), c, g, nil)
				if err != nil {
					t.Fatalf("%s/%s: %v", app, name, err)
				}
				manual = append(manual, Measurement{
					Shuttles: res.Metrics.Shuttles,
					TimeUS:   res.Metrics.MakespanUS,
					Log10F:   res.Metrics.Fidelity.Log10(),
				})
			}
		}
	}
	if len(manual) != len(ms) {
		t.Fatalf("direct calls produced %d measurements, plan %d", len(manual), len(ms))
	}
	viaDirect, err := p.Render(&Results{ms: manual})
	if err != nil {
		t.Fatal(err)
	}
	if viaRegistry != viaDirect {
		t.Errorf("plan and direct-call table2 differ:\n--- plan ---\n%s--- direct ---\n%s",
			viaRegistry, viaDirect)
	}
}

// TestCacheKeysStableAcrossProcesses pins the cache-key format to literal
// strings. Keys contain no pointers, maps or other per-process state, so a
// key computed in one process matches the same spec's key in another — the
// property a shared or remote measurement cache (ROADMAP) depends on. If
// this test fails because the format changed deliberately, bump the format
// knowingly: persisted caches invalidate.
func TestCacheKeysStableAcrossProcesses(t *testing.T) {
	const physDefault = "phys{SplitTimeUS:80 MergeTimeUS:80 SwapTimeUS:40 MoveSpeedUMUS:2 " +
		"Gate1TimeUS:5 Gate2TimeUS:40 FiberTimeUS:200 SplitHeat:1 MoveHeat:0.1 SwapHeat:0.3 " +
		"MergeHeat:1 T1US:6e+08 HeatingRate:0.001 Gate1Fidelity:0.9999 Epsilon:3.90625e-05 " +
		"FiberFidelity:0.99 PerfectShuttle:false PerfectGates:false}"
	const physZero = "phys{SplitTimeUS:0 MergeTimeUS:0 SwapTimeUS:0 MoveSpeedUMUS:0 " +
		"Gate1TimeUS:0 Gate2TimeUS:0 FiberTimeUS:0 SplitHeat:0 MoveHeat:0 SwapHeat:0 " +
		"MergeHeat:0 T1US:0 HeatingRate:0 Gate1Fidelity:0 Epsilon:0 FiberFidelity:0 " +
		"PerfectShuttle:false PerfectGates:false}"
	cases := []struct {
		job  Job
		want string
	}{
		{
			job: Job{Spec: CompileSpec{App: "GHZ_n32", Compiler: "mussti"}},
			want: "mussti|GHZ_n32|emlcfg{Modules:0 TrapCapacity:0 StorageZones:0 OperationZones:0 " +
				"OpticalZones:0 OpticalCapacity:0 MaxIonsPerModule:0 ZonePitchUM:0}|" +
				"map=1 swap=true k=8 T=4 repl=0 nolook=false trace=false|" + physDefault,
		},
		{
			job: Job{Spec: CompileSpec{App: "GHZ_n32", Compiler: "dai", Grid: arch.MustNewGrid(2, 2, 12)}},
			want: "dai|GHZ_n32|grid{2x2 cap=12 pitch=100}|" +
				"map=0 swap=false k=0 T=0 repl=0 nolook=false trace=false|" + physZero,
		},
	}
	for i, c := range cases {
		got, ok := c.job.Spec.CacheKey()
		if !ok {
			t.Fatalf("case %d: not cacheable", i)
		}
		if got != c.want {
			t.Errorf("case %d: key drifted from the pinned format:\ngot  %s\nwant %s", i, got, c.want)
		}
	}
}

// TestExplicitDefaultArchSharesKey: an Arch explicitly spelled as the app's
// paper default (fig7's capacity-16 point) and the zero Arch resolve to the
// same machine, so they must share one cache entry — the cross-experiment
// dedup for the heaviest points in the suite.
func TestExplicitDefaultArchSharesKey(t *testing.T) {
	c, err := bench.ByName("GHZ_n128")
	if err != nil {
		t.Fatal(err)
	}
	explicit := arch.DefaultConfig(c.NumQubits)
	explicit.TrapCapacity = 16 // spelled out, but identical to the default
	k1, ok1 := CompileSpec{App: "GHZ_n128", Compiler: "mussti", Arch: explicit}.CacheKey()
	k2, ok2 := CompileSpec{App: "GHZ_n128", Compiler: "mussti"}.CacheKey()
	if !ok1 || !ok2 {
		t.Fatalf("uncacheable (%v, %v)", ok1, ok2)
	}
	if k1 != k2 {
		t.Errorf("explicit default Arch and zero Arch keyed differently:\n%s\n%s", k1, k2)
	}
	// A genuinely different config must still get its own key.
	other := arch.DefaultConfig(c.NumQubits)
	other.TrapCapacity = 12
	k3, _ := CompileSpec{App: "GHZ_n128", Compiler: "mussti", Arch: other}.CacheKey()
	if k3 == k2 {
		t.Errorf("non-default Arch collided with the default key %s", k3)
	}
}
