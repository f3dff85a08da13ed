package core

import (
	"context"
	"math"
	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit"
)

// testScheduler builds a scheduler over a tiny 2-module device with a
// given placement, for white-box routing tests.
func testScheduler(t *testing.T, c *circuit.Circuit, placement []int) (*scheduler, *arch.Device) {
	t.Helper()
	d := arch.MustNew(arch.Config{
		Modules: 2, TrapCapacity: 4,
		StorageZones: 1, OperationZones: 1, OpticalZones: 1,
	})
	s, err := newScheduler(context.Background(), c, d, CompileConfig{}.withDefaults(), placement)
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

// Zone layout per module: 0 storage, 1 operation, 2 optical (module 0);
// 3 storage, 4 operation, 5 optical (module 1).

func TestExecutableNowCases(t *testing.T) {
	c := circuit.New("x", 4)
	c.MS(0, 1)
	s, _ := testScheduler(t, c, []int{1, 1, 2, 5})
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 1, true},  // same operation zone
		{2, 3, true},  // optical zones of different modules (fiber)
		{0, 2, false}, // operation vs optical, same module
		{0, 3, false}, // operation vs remote optical
	}
	for _, tc := range cases {
		if got := s.executableNow(tc.a, tc.b); got != tc.want {
			t.Errorf("executableNow(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestExecutableNowStorageIsNot(t *testing.T) {
	c := circuit.New("x", 2)
	c.MS(0, 1)
	s, _ := testScheduler(t, c, []int{0, 0})
	if s.executableNow(0, 1) {
		t.Error("co-located storage qubits reported executable")
	}
}

func TestGatherCostPrefersPartnerZone(t *testing.T) {
	c := circuit.New("x", 2)
	c.MS(0, 1)
	s, _ := testScheduler(t, c, []int{1, 0}) // q0 in operation, q1 in storage
	// Gathering in the operation zone moves one qubit; in the optical
	// zone it moves both.
	costOp := s.gatherCost(1, 0, 1)
	costOpt := s.gatherCost(2, 0, 1)
	if costOp >= costOpt {
		t.Errorf("gatherCost op=%v >= optical=%v", costOp, costOpt)
	}
}

func TestGatherCostPoisonsCrossModule(t *testing.T) {
	c := circuit.New("x", 2)
	c.MS(0, 1)
	s, _ := testScheduler(t, c, []int{1, 4}) // different modules
	if cost := s.gatherCost(1, 0, 1); !math.IsInf(cost, 1) {
		t.Errorf("cross-module gather cost = %v, want +Inf", cost)
	}
}

func TestEvictionTargetDescendsLevels(t *testing.T) {
	c := circuit.New("x", 1)
	s, _ := testScheduler(t, c, []int{2})
	// From the optical zone (2), eviction should land in operation (1).
	target, err := s.evictionTarget(2)
	if err != nil {
		t.Fatal(err)
	}
	if target != 1 {
		t.Errorf("eviction from optical went to zone %d, want operation 1", target)
	}
}

func TestEvictionTargetFallsBackSideways(t *testing.T) {
	// Fill both lower-level zones of module 0 completely: eviction from
	// the operation zone must fall back to any zone with space (optical).
	c := circuit.New("x", 9)
	placement := []int{0, 0, 0, 0, 1, 1, 1, 1, 2} // storage full, operation full
	s, _ := testScheduler(t, c, placement)
	target, err := s.evictionTarget(1)
	if err != nil {
		t.Fatal(err)
	}
	if target != 2 {
		t.Errorf("fallback eviction went to zone %d, want optical 2", target)
	}
}

func TestMoveWithEvictionEvictsLRU(t *testing.T) {
	c := circuit.New("x", 6)
	c.MS(4, 0)
	// Operation zone (1) full with q0..3; q4 in storage must displace one.
	s, _ := testScheduler(t, c, []int{1, 1, 1, 1, 0, 0})
	s.lastUsed = []int64{5, 1, 4, 3, 0, 0} // q1 is LRU among residents
	if err := s.moveWithEviction(4, 1, 4, 0); err != nil {
		t.Fatal(err)
	}
	if s.eng.ZoneOf(1) == 1 {
		t.Error("LRU victim q1 still in the operation zone")
	}
	if s.eng.ZoneOf(4) != 1 {
		t.Errorf("q4 at zone %d, want 1", s.eng.ZoneOf(4))
	}
	if s.stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.stats.Evictions)
	}
}

func TestPickVictimProtectsOperands(t *testing.T) {
	c := circuit.New("x", 4)
	s, _ := testScheduler(t, c, []int{1, 1, 1, 1})
	// All protected except q3.
	v := s.pickVictim(1, 0, 1)
	if v == 0 || v == 1 {
		t.Errorf("victim %d is protected", v)
	}
	// Everything protected: no victim. (Zone holds q0..q3; protect all by
	// running twice with the two pairs.)
	s2, _ := testScheduler(t, c, []int{1, 1, 5, 5})
	if v := s2.pickVictim(1, 0, 1); v != -1 {
		t.Errorf("victim %d from fully protected zone", v)
	}
}

func TestFutureAttractionPullsTowardOptical(t *testing.T) {
	c := circuit.New("x", 3)
	c.MS(0, 1) // current gate
	c.MS(0, 2) // future gate: q2 lives on module 1 → q0 pulled to optical
	s, _ := testScheduler(t, c, []int{1, 1, 4})
	attr := s.futureAttraction(0, 1)
	found := false
	for _, a := range attr {
		if a.qubit == 0 && a.target == 2 { // module 0's optical zone
			found = true
		}
	}
	if !found {
		t.Errorf("no optical attraction recorded: %+v", attr)
	}
}

func TestAttractionCostZeroWhenTargetMatches(t *testing.T) {
	c := circuit.New("x", 3)
	c.MS(0, 1)
	c.MS(0, 2)
	s, _ := testScheduler(t, c, []int{1, 1, 1})
	attr := []attraction{{qubit: 0, target: 1, weight: 1}}
	if cost := s.attractionCost(1, attr); cost != 0 {
		t.Errorf("matched-target attraction cost = %v, want 0", cost)
	}
	if cost := s.attractionCost(2, attr); cost <= 0 {
		t.Errorf("mismatched-target attraction cost = %v, want > 0", cost)
	}
}

func TestNextUseSentinel(t *testing.T) {
	c := circuit.New("x", 2)
	c.MS(0, 1)
	c.Measure(0)
	s, _ := testScheduler(t, c, []int{1, 1})
	if nu := s.nextUse(0); nu != 0 {
		t.Errorf("nextUse(0) = %d, want gate 0", nu)
	}
	// Consume the gate; next use becomes the sentinel (measure is 1q).
	s.cursor[0] = 1
	if nu := s.nextUse(0); nu != math.MaxInt32 {
		t.Errorf("nextUse after last 2q gate = %d, want sentinel", nu)
	}
}
