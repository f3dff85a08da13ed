package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mussti/internal/physics"
)

// twoModuleZones builds a minimal EML-like zone set: per module one storage,
// one operation, one optical zone of the given capacity.
func twoModuleZones(capacity int) []ZoneInfo {
	var zs []ZoneInfo
	for m := 0; m < 2; m++ {
		zs = append(zs,
			ZoneInfo{Capacity: capacity, GateCapable: false, Optical: false, Module: m},
			ZoneInfo{Capacity: capacity, GateCapable: true, Optical: false, Module: m},
			ZoneInfo{Capacity: capacity, GateCapable: true, Optical: true, Module: m},
		)
	}
	return zs
}

func TestPlaceAndLegality(t *testing.T) {
	e := NewEngine(twoModuleZones(2), 4, physics.Default())
	if err := e.Place(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Place(0, 1); err == nil {
		t.Error("double placement accepted")
	}
	if err := e.Place(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Place(2, 0); err == nil {
		t.Error("placement into full zone accepted")
	}
	if err := e.Place(9, 0); err == nil {
		t.Error("out-of-range qubit accepted")
	}
	if err := e.Place(2, 99); err == nil {
		t.Error("invalid zone accepted")
	}
	if e.ZoneOf(0) != 0 || e.ZoneOf(3) != -1 {
		t.Error("ZoneOf bookkeeping wrong")
	}
}

func TestMoveUpdatesOccupancyAndMetrics(t *testing.T) {
	e := NewEngine(twoModuleZones(4), 3, physics.Default())
	for q, z := range []int{0, 0, 0} {
		if err := e.Place(q, z); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Move(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if e.ZoneOf(0) != 1 {
		t.Errorf("zone of 0 = %d, want 1", e.ZoneOf(0))
	}
	m := e.Metrics()
	if m.Shuttles != 1 {
		t.Errorf("shuttles = %d, want 1", m.Shuttles)
	}
	// Qubit 0 was at the chain head (edge): no chain swaps.
	if m.ChainSwaps != 0 {
		t.Errorf("chain swaps = %d, want 0", m.ChainSwaps)
	}
	// Split(80) + Move(100um/2) + Merge(80) = 210us.
	if math.Abs(m.MakespanUS-210) > 1e-9 {
		t.Errorf("makespan = %v, want 210", m.MakespanUS)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestMoveInteriorIonPaysChainSwaps(t *testing.T) {
	e := NewEngine(twoModuleZones(5), 5, physics.Default())
	for q := 0; q < 5; q++ {
		if err := e.Place(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Chain is [0 1 2 3 4]; qubit 2 sits dead centre: 2 swaps to an edge.
	if err := e.Move(2, 1, 100); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().ChainSwaps; got != 2 {
		t.Errorf("chain swaps = %d, want 2", got)
	}
	// Edge ion pays none.
	if err := e.Move(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().ChainSwaps; got != 2 {
		t.Errorf("chain swaps after edge move = %d, want still 2", got)
	}
}

func TestMoveErrors(t *testing.T) {
	e := NewEngine(twoModuleZones(1), 3, physics.Default())
	if err := e.Place(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Place(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Move(0, 1, 100); err == nil {
		t.Error("move into full zone accepted")
	}
	if err := e.Move(0, 0, 100); err == nil {
		t.Error("move into own zone accepted")
	}
	if err := e.Move(2, 1, 100); err == nil {
		t.Error("move of unplaced qubit accepted")
	}
	if err := e.Move(0, 77, 100); err == nil {
		t.Error("move to invalid zone accepted")
	}
}

func TestGate2Legality(t *testing.T) {
	e := NewEngine(twoModuleZones(4), 4, physics.Default())
	e.Place(0, 1)
	e.Place(1, 1)
	e.Place(2, 0)
	e.Place(3, 4)
	if err := e.Gate2(0, 1); err != nil {
		t.Errorf("co-located gate rejected: %v", err)
	}
	if err := e.Gate2(0, 3); err == nil {
		t.Error("cross-zone gate accepted")
	}
	e.Place(0, 0)
	if err := e.Gate2(0, 2); err == nil {
		t.Error("2q gate in storage (non-gate-capable) accepted")
	}
}

func TestGate2FidelityDependsOnChainLength(t *testing.T) {
	p := physics.Default()
	run := func(extra int) float64 {
		e := NewEngine(twoModuleZones(16), 16, p)
		for q := 0; q < 2+extra; q++ {
			if err := e.Place(q, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Gate2(0, 1); err != nil {
			t.Fatal(err)
		}
		return e.Metrics().Fidelity.Log()
	}
	if run(0) <= run(10) {
		t.Error("gate in longer chain must have lower fidelity")
	}
}

func TestFiberLegality(t *testing.T) {
	e := NewEngine(twoModuleZones(4), 4, physics.Default())
	e.Place(0, 2) // optical module 0
	e.Place(1, 5) // optical module 1
	e.Place(2, 1) // operation module 0
	e.Place(3, 2) // optical module 0
	if err := e.Fiber(0, 1); err != nil {
		t.Errorf("valid fiber gate rejected: %v", err)
	}
	if err := e.Fiber(0, 2); err == nil {
		t.Error("fiber gate with non-optical partner accepted")
	}
	if err := e.Fiber(0, 3); err == nil {
		t.Error("fiber gate within one module accepted")
	}
	m := e.Metrics()
	if m.FiberGates != 1 {
		t.Errorf("fiber gates = %d, want 1", m.FiberGates)
	}
}

func TestInsertedSwapExchangesBindings(t *testing.T) {
	e := NewEngine(twoModuleZones(4), 4, physics.Default())
	e.Place(0, 2)
	e.Place(1, 5)
	if err := e.InsertedSwap(0, 1); err != nil {
		t.Fatal(err)
	}
	if e.ZoneOf(0) != 5 || e.ZoneOf(1) != 2 {
		t.Errorf("swap did not exchange positions: q0@%d q1@%d", e.ZoneOf(0), e.ZoneOf(1))
	}
	m := e.Metrics()
	if m.FiberGates != 3 {
		t.Errorf("fiber gates = %d, want 3 (a SWAP is three MS gates)", m.FiberGates)
	}
	if m.InsertedSwaps != 1 {
		t.Errorf("inserted swaps = %d, want 1", m.InsertedSwaps)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestHeatAccumulationDegradesLaterGates(t *testing.T) {
	p := physics.Default()
	e := NewEngine(twoModuleZones(4), 3, p)
	e.Place(0, 1)
	e.Place(1, 1)
	e.Place(2, 0)
	if err := e.Gate2(0, 1); err != nil {
		t.Fatal(err)
	}
	cold := e.Metrics().Fidelity.Log()
	// Heat the operation zone with shuttle traffic.
	for i := 0; i < 5; i++ {
		if err := e.Move(2, 1, 100); err != nil {
			t.Fatal(err)
		}
		if err := e.Move(2, 0, 100); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Metrics().Fidelity.Log()
	if err := e.Gate2(0, 1); err != nil {
		t.Fatal(err)
	}
	hotGate := e.Metrics().Fidelity.Log() - before
	if hotGate >= cold {
		t.Errorf("hot-zone gate logF %v not worse than cold %v", hotGate, cold)
	}
}

func TestMakespanCreditsParallelZones(t *testing.T) {
	e := NewEngine(twoModuleZones(4), 4, physics.Default())
	e.Place(0, 1)
	e.Place(1, 1)
	e.Place(2, 4)
	e.Place(3, 4)
	// Two gates in different modules overlap fully.
	e.Gate2(0, 1)
	e.Gate2(2, 3)
	if got := e.Metrics().MakespanUS; got != 40 {
		t.Errorf("parallel makespan = %v, want 40", got)
	}
	// A second gate in the same zone serialises.
	e.Gate2(0, 1)
	if got := e.Metrics().MakespanUS; got != 80 {
		t.Errorf("serial makespan = %v, want 80", got)
	}
}

func TestMeasureCountsSeparately(t *testing.T) {
	e := NewEngine(twoModuleZones(4), 2, physics.Default())
	e.Place(0, 0)
	if err := e.Measure(0); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Measurements != 1 || m.Gates1 != 0 {
		t.Errorf("measure bookkeeping: meas=%d g1=%d", m.Measurements, m.Gates1)
	}
	if err := e.Gate1(0); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Gates1; got != 1 {
		t.Errorf("gates1 = %d, want 1", got)
	}
}

func TestTraceRecording(t *testing.T) {
	e := NewEngine(twoModuleZones(4), 2, physics.Default())
	e.EnableTrace()
	e.Place(0, 0)
	e.Place(1, 1)
	e.Move(0, 1, 100)
	e.Gate2(0, 1)
	tr := e.Trace()
	kinds := make(map[string]int)
	for _, op := range tr {
		kinds[op.Kind]++
	}
	if kinds["split"] != 1 || kinds["move"] != 1 || kinds["merge"] != 1 || kinds["gate2"] != 1 {
		t.Errorf("trace kinds = %v", kinds)
	}
	// Ops are timestamped in order along shared resources.
	for i := 1; i < len(tr); i++ {
		if tr[i].StartUS < tr[i-1].StartUS {
			t.Errorf("trace timestamps out of order: %v then %v", tr[i-1], tr[i])
		}
	}
}

func TestSwapsToEdge(t *testing.T) {
	e := NewEngine(twoModuleZones(5), 5, physics.Default())
	for q := 0; q < 5; q++ {
		e.Place(q, 0)
	}
	wants := []int{0, 1, 2, 1, 0}
	for q, want := range wants {
		if got := e.SwapsToEdge(q); got != want {
			t.Errorf("SwapsToEdge(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestPropertyRandomOpsKeepConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		zones := twoModuleZones(3)
		e := NewEngine(zones, 8, physics.Default())
		placed := 0
		for q := 0; q < 8 && placed < 8; q++ {
			z := rng.Intn(len(zones))
			if e.Free(z) > 0 {
				if err := e.Place(q, z); err != nil {
					return false
				}
				placed++
			}
		}
		for i := 0; i < 100; i++ {
			q := rng.Intn(placed)
			if e.ZoneOf(q) == -1 {
				continue
			}
			z := rng.Intn(len(zones))
			if z == e.ZoneOf(q) || e.Free(z) == 0 {
				continue
			}
			if err := e.Move(q, z, float64(rng.Intn(300))); err != nil {
				return false
			}
		}
		return e.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyShuttleCountMatchesMoves(t *testing.T) {
	f := func(nMoves uint8) bool {
		moves := int(nMoves%50) + 1
		e := NewEngine(twoModuleZones(4), 1, physics.Default())
		if err := e.Place(0, 0); err != nil {
			return false
		}
		cur := 0
		for i := 0; i < moves; i++ {
			next := (cur + 1) % 3 // cycle within module 0
			if err := e.Move(0, next, 100); err != nil {
				return false
			}
			cur = next
		}
		return e.Metrics().Shuttles == moves
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGate2TableCappedByQubits: a zone far larger than the program sizes
// the two-qubit ln F table by the qubit count, not by the zone — a chain
// never holds more ions than there are qubits.
func TestGate2TableCappedByQubits(t *testing.T) {
	e := NewEngine([]ZoneInfo{{Capacity: 10_000_000, GateCapable: true}}, 2, physics.Default())
	if len(e.gate2LogF) != 3 {
		t.Errorf("gate2 table has %d entries for 2 qubits, want 3", len(e.gate2LogF))
	}
}

// TestPrecomputedLogFMatchParams pins the engine's per-op ln F constants
// to the physics.Params methods they replace, bit for bit, for every model
// switch and every chain length up to the largest zone capacity (170 ions
// reaches Gate2Fidelity's floor).
func TestPrecomputedLogFMatchParams(t *testing.T) {
	shuttle, gates := physics.Default(), physics.Default()
	shuttle.PerfectShuttle = true
	gates.PerfectGates = true
	zones := []ZoneInfo{{Capacity: 2}, {Capacity: 170}, {Capacity: 16}}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, m := range []struct {
		name string
		p    physics.Params
	}{{"default", physics.Default()}, {"perfect shuttle", shuttle}, {"perfect gates", gates}} {
		name, p := m.name, m.p
		e := NewEngine(zones, 170, p)
		for _, c := range []struct {
			op        string
			got, want float64
		}{
			{"chain swap", e.swapLogF, p.ShuttleLogF(p.SwapTimeUS, p.SwapHeat)},
			{"split", e.splitLogF, p.ShuttleLogF(p.SplitTimeUS, p.SplitHeat)},
			{"merge", e.mergeLogF, p.ShuttleLogF(p.MergeTimeUS, p.MergeHeat)},
			{"gate1", e.gate1LogF + p.BackgroundLogF(3.7), p.Gate1LogF(p.BackgroundLogF(3.7))},
			{"fiber", e.fiberLogF + p.BackgroundLogF(1.3) + p.BackgroundLogF(2.9), p.FiberLogF(p.BackgroundLogF(1.3), p.BackgroundLogF(2.9))},
		} {
			if !same(c.got, c.want) {
				t.Errorf("%s %s: precomputed %v, Params gives %v", name, c.op, c.got, c.want)
			}
		}
		if len(e.gate2LogF) != 171 {
			t.Fatalf("%s: gate2 table has %d entries, want 171", name, len(e.gate2LogF))
		}
		for n := range e.gate2LogF {
			bg := p.BackgroundLogF(float64(n) / 7)
			if got, want := e.gate2LogF[n]+bg, p.Gate2LogF(n, bg); !same(got, want) {
				t.Errorf("%s gate2 n=%d: precomputed %v, Params gives %v", name, n, got, want)
			}
		}
	}
}
