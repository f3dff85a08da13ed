package sim

import (
	"fmt"

	"mussti/internal/circuit"
)

// VerifySchedule independently re-checks a recorded trace against the
// source circuit and the device description. It is deliberately a second
// implementation — it shares no state with Engine — so a scheduler bug
// that slipped past the engine's per-op checks is caught here:
//
//  1. Occupancy: replayed zone loads never exceed capacity, ions are where
//     the trace says they are, and moves only touch placed ions.
//  2. Gate legality: two-qubit gates run in one gate-capable zone; fiber
//     gates span optical zones of two different modules.
//  3. Program order: for every qubit, the logical two-qubit gates execute
//     in exactly the order the circuit prescribes. Every "fiber" op is a
//     program gate; "swapfiber" ops are the three MS gates of an inserted
//     SWAP, which is transparent: it permutes the logical↔physical
//     binding, not the program.
//  4. Timing: operations touching a shared zone or qubit never overlap.
//
// initial maps each logical qubit to its starting zone.
func VerifySchedule(c *circuit.Circuit, zones []ZoneInfo, initial []int, trace []Op) error {
	_, err := VerifyAndExtract(c, zones, initial, trace)
	return err
}

// VerifyAndExtract verifies the schedule like VerifySchedule and, on
// success, returns the order in which the circuit's gates (indices into
// c.Gates) were executed. The order is a topological reordering of the
// program: per-qubit order is preserved, and only gates with disjoint
// supports commute past each other — which is why executing it yields the
// same unitary as the program order (see internal/quantum's end-to-end
// semantic test).
func VerifyAndExtract(c *circuit.Circuit, zones []ZoneInfo, initial []int, trace []Op) ([]int, error) {
	v := &verifier{c: c, zones: zones, trace: trace}
	if err := v.run(initial); err != nil {
		return nil, err
	}
	return v.executed, nil
}

type verifier struct {
	c     *circuit.Circuit
	zones []ZoneInfo
	trace []Op

	loc      []int // logical qubit -> zone
	load     []int // zone -> ion count
	busyZone []float64
	busyQ    []float64

	// perQubit / cursor mirror the scheduler's program-order bookkeeping.
	perQubit [][]int
	cursor   []int

	// pendingSwap counts "swapfiber" ops per unordered pair; at three, the
	// pair's logical bindings exchange (an inserted SWAP).
	pendingSwap map[[2]int]int

	// executed records consumed circuit gate indices in execution order.
	executed []int
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (v *verifier) run(initial []int) error {
	n := v.c.NumQubits
	if len(initial) != n {
		return fmt.Errorf("verify: initial mapping has %d entries for %d qubits", len(initial), n)
	}
	v.loc = make([]int, n)
	v.load = make([]int, len(v.zones))
	v.busyZone = make([]float64, len(v.zones))
	v.busyQ = make([]float64, n)
	v.perQubit = make([][]int, n)
	v.cursor = make([]int, n)
	v.pendingSwap = make(map[[2]int]int)
	for q, z := range initial {
		if z < 0 || z >= len(v.zones) {
			return fmt.Errorf("verify: qubit %d starts in invalid zone %d", q, z)
		}
		v.loc[q] = z
		v.load[z]++
		if v.load[z] > v.zones[z].Capacity {
			return fmt.Errorf("verify: initial mapping overfills zone %d", z)
		}
	}
	for gi, g := range v.c.Gates {
		for _, q := range g.Operands() {
			v.perQubit[q] = append(v.perQubit[q], gi)
		}
	}

	for i, op := range v.trace {
		if err := v.step(i, op); err != nil {
			return err
		}
	}
	// Every circuit gate must have been executed.
	for q := 0; q < n; q++ {
		if v.cursor[q] != len(v.perQubit[q]) {
			return fmt.Errorf("verify: qubit %d executed %d of %d gates", q, v.cursor[q], len(v.perQubit[q]))
		}
	}
	// No half-finished inserted SWAPs. Report the smallest offending pair,
	// not a random one, so a failing verification prints the same error on
	// every run.
	var worst [2]int
	found := false
	//mussti:allow=determinism deterministic min-selection: every iteration order yields the smallest pair
	for pair := range v.pendingSwap {
		if !found || pair[0] < worst[0] || (pair[0] == worst[0] && pair[1] < worst[1]) {
			worst, found = pair, true
		}
	}
	if found {
		return fmt.Errorf("verify: pair %v has %d dangling fiber ops (incomplete SWAP)", worst, v.pendingSwap[worst])
	}
	return nil
}

func (v *verifier) step(i int, op Op) error {
	switch op.Kind {
	case "chainswap":
		return v.reserveZone(i, op, op.Zone)
	case "split":
		return v.reserveZone(i, op, op.Zone)
	case "move":
		// Transit; the merge performs the occupancy update.
		return nil
	case "merge":
		q := op.Qubits[0]
		src, dst := op.ZoneB, op.Zone
		if v.loc[q] != src {
			return fmt.Errorf("verify: op %d merges qubit %d from zone %d but it is in %d", i, q, src, v.loc[q])
		}
		if v.load[dst] >= v.zones[dst].Capacity {
			return fmt.Errorf("verify: op %d overfills zone %d", i, dst)
		}
		v.load[src]--
		v.load[dst]++
		v.loc[q] = dst
		return v.reserveZone(i, op, dst)
	case "gate1":
		q := op.Qubits[0]
		gi, err := v.nextGate(q)
		if err != nil {
			return fmt.Errorf("verify: op %d: %w", i, err)
		}
		g := v.c.Gates[gi]
		if !g.Kind.IsOneQubit() {
			return fmt.Errorf("verify: op %d executes 1q op but program expects %v", i, g)
		}
		v.cursor[q]++
		v.executed = append(v.executed, gi)
		return v.reserveQubits(i, op)
	case "gate2":
		a, b := op.Qubits[0], op.Qubits[1]
		if v.loc[a] != op.Zone || v.loc[b] != op.Zone {
			return fmt.Errorf("verify: op %d gate2 in zone %d but qubits at %d,%d", i, op.Zone, v.loc[a], v.loc[b])
		}
		if !v.zones[op.Zone].GateCapable {
			return fmt.Errorf("verify: op %d gate2 in non-gate-capable zone %d", i, op.Zone)
		}
		if err := v.consumeTwoQubit(a, b); err != nil {
			return fmt.Errorf("verify: op %d: %w", i, err)
		}
		return v.reserveQubits(i, op)
	case "fiber", "swapfiber":
		a, b := op.Qubits[0], op.Qubits[1]
		za, zb := v.loc[a], v.loc[b]
		if za != op.Zone || zb != op.ZoneB {
			return fmt.Errorf("verify: op %d fiber zones %d/%d but qubits at %d/%d", i, op.Zone, op.ZoneB, za, zb)
		}
		if !v.zones[za].Optical || !v.zones[zb].Optical {
			return fmt.Errorf("verify: op %d fiber outside optical zones", i)
		}
		if v.zones[za].Module == v.zones[zb].Module {
			return fmt.Errorf("verify: op %d fiber within module %d", i, v.zones[za].Module)
		}
		if op.Kind == "fiber" {
			if err := v.consumeTwoQubit(a, b); err != nil {
				return fmt.Errorf("verify: op %d: %w", i, err)
			}
			return v.reserveQubits(i, op)
		}
		// One of an inserted SWAP's three fiber MS gates on the pair,
		// after which the logical bindings exchange. Count them per pair.
		key := pairKey(a, b)
		v.pendingSwap[key]++
		if v.pendingSwap[key] == 3 {
			delete(v.pendingSwap, key)
			v.loc[a], v.loc[b] = v.loc[b], v.loc[a]
		}
		return v.reserveQubits(i, op)
	default:
		return fmt.Errorf("verify: op %d has unknown kind %q", i, op.Kind)
	}
}

// nextGate returns the next program gate index for qubit q.
func (v *verifier) nextGate(q int) (int, error) {
	if v.cursor[q] >= len(v.perQubit[q]) {
		return 0, fmt.Errorf("qubit %d has no remaining program gates", q)
	}
	return v.perQubit[q][v.cursor[q]], nil
}

func (v *verifier) consumeTwoQubit(a, b int) error {
	ga, errA := v.nextGate(a)
	gb, errB := v.nextGate(b)
	if errA != nil {
		return errA
	}
	if errB != nil {
		return errB
	}
	if ga != gb {
		return fmt.Errorf("qubits %d,%d disagree on next gate (%d vs %d)", a, b, ga, gb)
	}
	g := v.c.Gates[ga]
	if !g.Kind.IsTwoQubit() {
		return fmt.Errorf("program gate %d is not two-qubit: %v", ga, g)
	}
	v.cursor[a]++
	v.cursor[b]++
	v.executed = append(v.executed, ga)
	return nil
}

// reserveZone checks zone-serialised timing for shuttle primitives.
func (v *verifier) reserveZone(i int, op Op, zone int) error {
	if op.StartUS+1e-9 < v.busyZone[zone] {
		return fmt.Errorf("verify: op %d starts at %v before zone %d frees at %v", i, op.StartUS, zone, v.busyZone[zone])
	}
	v.busyZone[zone] = op.StartUS + op.DurUS
	return nil
}

// reserveQubits checks qubit-serialised timing for gates.
func (v *verifier) reserveQubits(i int, op Op) error {
	for _, q := range op.Qubits {
		if op.StartUS+1e-9 < v.busyQ[q] {
			return fmt.Errorf("verify: op %d starts at %v before qubit %d frees at %v", i, op.StartUS, q, v.busyQ[q])
		}
		v.busyQ[q] = op.StartUS + op.DurUS
	}
	return nil
}
