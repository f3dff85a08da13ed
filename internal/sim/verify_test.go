package sim

import (
	"strings"
	"testing"

	"mussti/internal/circuit"
	"mussti/internal/physics"
)

// buildAndTrace runs a tiny hand-driven schedule and returns everything the
// verifier needs.
func buildAndTrace(t *testing.T) (*circuit.Circuit, []ZoneInfo, []int, *Engine) {
	t.Helper()
	c := circuit.New("v", 4)
	c.H(0)
	c.MS(0, 1)
	c.MS(2, 3)
	c.MS(1, 2)
	c.Measure(0)

	zones := twoModuleZones(4)
	e := NewEngine(zones, 4, physics.Default())
	e.EnableTrace()
	initial := []int{1, 1, 1, 1} // all in module 0's operation zone
	for q, z := range initial {
		if err := e.Place(q, z); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.Gate1(0))
	must(e.Gate2(0, 1))
	must(e.Gate2(2, 3))
	must(e.Gate2(1, 2))
	must(e.Measure(0))
	return c, zones, initial, e
}

func TestVerifyAcceptsLegalSchedule(t *testing.T) {
	c, zones, initial, e := buildAndTrace(t)
	if err := VerifySchedule(c, zones, initial, e.Trace()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsMissingGates(t *testing.T) {
	c, zones, initial, e := buildAndTrace(t)
	trace := e.Trace()
	if err := VerifySchedule(c, zones, initial, trace[:len(trace)-2]); err == nil {
		t.Error("truncated schedule accepted")
	}
}

func TestVerifyRejectsReorderedGates(t *testing.T) {
	c, zones, initial, e := buildAndTrace(t)
	trace := append([]Op(nil), e.Trace()...)
	// Swap the two dependent gate2 ops (0,1) and (1,2).
	var i01, i12 = -1, -1
	for i, op := range trace {
		if op.Kind == "gate2" && op.Qubits[0] == 0 {
			i01 = i
		}
		if op.Kind == "gate2" && op.Qubits[0] == 1 {
			i12 = i
		}
	}
	trace[i01], trace[i12] = trace[i12], trace[i01]
	if err := VerifySchedule(c, zones, initial, trace); err == nil {
		t.Error("reordered dependent gates accepted")
	}
}

func TestVerifyRejectsWrongZoneGate(t *testing.T) {
	c, zones, initial, e := buildAndTrace(t)
	trace := append([]Op(nil), e.Trace()...)
	for i, op := range trace {
		if op.Kind == "gate2" {
			trace[i].Zone = 0 // claim it ran in the storage zone
			_ = op
			break
		}
	}
	err := VerifySchedule(c, zones, initial, trace)
	if err == nil {
		t.Fatal("gate in storage zone accepted")
	}
	if !strings.Contains(err.Error(), "zone") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestVerifyRejectsBadInitialMapping(t *testing.T) {
	c, zones, _, e := buildAndTrace(t)
	if err := VerifySchedule(c, zones, []int{0, 0}, e.Trace()); err == nil {
		t.Error("short initial mapping accepted")
	}
	if err := VerifySchedule(c, zones, []int{0, 0, 0, 99}, e.Trace()); err == nil {
		t.Error("invalid zone in initial mapping accepted")
	}
	over := []int{0, 0, 0, 0}
	zs := twoModuleZones(2) // capacity 2: four ions overfill zone 0
	if err := VerifySchedule(c, zs, over, e.Trace()); err == nil {
		t.Error("overfilled initial mapping accepted")
	}
}

func TestVerifyFiberAndInsertedSwap(t *testing.T) {
	c := circuit.New("f", 2)
	c.MS(0, 1)
	zones := twoModuleZones(4)
	e := NewEngine(zones, 2, physics.Default())
	e.EnableTrace()
	initial := []int{2, 5} // optical zones of modules 0 and 1
	for q, z := range initial {
		if err := e.Place(q, z); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Fiber(0, 1); err != nil {
		t.Fatal(err)
	}
	// An inserted SWAP after the program gate.
	if err := e.InsertedSwap(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(c, zones, initial, e.Trace()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsDanglingFiber(t *testing.T) {
	c := circuit.New("f", 2) // no gates at all
	zones := twoModuleZones(4)
	e := NewEngine(zones, 2, physics.Default())
	e.EnableTrace()
	initial := []int{2, 5}
	for q, z := range initial {
		if err := e.Place(q, z); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Fiber(0, 1); err != nil {
		t.Fatal(err)
	}
	// A lone program fiber gate the circuit does not contain.
	if err := VerifySchedule(c, zones, initial, e.Trace()); err == nil {
		t.Error("fiber op without a program gate accepted")
	}
	// A lone SWAP part: one of three, so the binding never exchanges.
	trace := e.Trace()
	trace[0].Kind = "swapfiber"
	if err := VerifySchedule(c, zones, initial, trace); err == nil {
		t.Error("dangling swapfiber op accepted")
	}
}

// TestVerifyReadsSwapPartsFromTheTrace covers an inserted SWAP between two
// qubits whose next program gate is with each other: the schedule SWAPs
// them and then runs their gate over the fiber anyway. Which of the four
// fiber ops is the program gate is visible only from the op kinds, so a
// SWAP part relabelled "fiber" must be rejected.
func TestVerifyReadsSwapPartsFromTheTrace(t *testing.T) {
	c := circuit.New("f", 2)
	c.MS(0, 1)
	zones := twoModuleZones(4)
	e := NewEngine(zones, 2, physics.Default())
	e.EnableTrace()
	initial := []int{2, 5}
	for q, z := range initial {
		if err := e.Place(q, z); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.InsertedSwap(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Fiber(0, 1); err != nil {
		t.Fatal(err)
	}
	trace := e.Trace()
	if err := VerifySchedule(c, zones, initial, trace); err != nil {
		t.Fatalf("SWAP then program fiber gate rejected: %v", err)
	}
	trace[0].Kind = "fiber"
	if err := VerifySchedule(c, zones, initial, trace); err == nil {
		t.Error("SWAP part mislabelled as a program fiber gate accepted")
	}
}
