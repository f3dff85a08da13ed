package main

import (
	"fmt"
	"net/http"

	"mussti"
	"mussti/internal/circuit"
)

// Table-1 gate durations of the paper, in µs. The benchmark keeps its own
// copy so the makespan bound does not trust the program's physics model.
const (
	gate1US = 5.0
	gate2US = 40.0
)

// gateCounts is what the benchmark counts in a circuit by itself.
type gateCounts struct {
	oneQubit, measures, twoQubit int
	// serialUS is the busiest qubit's serial gate time: no schedule can
	// finish sooner. serial2US counts two-qubit gates only, a bound that
	// survives rewriting the one-qubit gates (lowering).
	serialUS, serial2US float64
}

// countGates classifies every gate of c by its kind.
func countGates(c *mussti.Circuit) (gateCounts, error) {
	var k gateCounts
	busy := make([]float64, c.NumQubits)
	busy2 := make([]float64, c.NumQubits)
	for i, g := range c.Gates {
		switch g.Kind {
		case circuit.KindH, circuit.KindX, circuit.KindY, circuit.KindZ, circuit.KindS, circuit.KindSdg,
			circuit.KindT, circuit.KindTdg, circuit.KindRX, circuit.KindRY, circuit.KindRZ, circuit.KindU:
			k.oneQubit++
			busy[g.Qubits[0]] += gate1US
		case circuit.KindMeasure:
			k.measures++
			busy[g.Qubits[0]] += gate1US
		case circuit.KindMS, circuit.KindCX, circuit.KindCZ, circuit.KindCP, circuit.KindRXX, circuit.KindRZZ, circuit.KindSwap:
			k.twoQubit++
			for _, q := range g.Qubits {
				busy[q] += gate2US
				busy2[q] += gate2US
			}
		case circuit.KindBarrier:
		default:
			return k, fmt.Errorf("%s: gate %d has unknown kind %v", c.Name, i, g.Kind)
		}
	}
	for q := range busy {
		k.serialUS = max(k.serialUS, busy[q])
		k.serial2US = max(k.serial2US, busy2[q])
	}
	return k, nil
}

// checkResult checks one compile result against the circuit's own counts:
// gate conservation (an inserted SWAP is three fiber gates), the makespan
// bound and a fidelity no greater than 1.
func checkResult(k gateCounts, res *mussti.Result) error {
	m := res.Metrics
	if m.Gates1 != k.oneQubit {
		return fmt.Errorf("executed %d one-qubit gates, circuit has %d", m.Gates1, k.oneQubit)
	}
	if m.Measurements != k.measures {
		return fmt.Errorf("executed %d measurements, circuit has %d", m.Measurements, k.measures)
	}
	if got := m.Gates2 + m.FiberGates - 3*m.InsertedSwaps; got != k.twoQubit {
		return fmt.Errorf("executed %d two-qubit gates (%d local + %d fiber - 3x%d swaps), circuit has %d",
			got, m.Gates2, m.FiberGates, m.InsertedSwaps, k.twoQubit)
	}
	return checkBounds(k.serialUS, m.MakespanUS, m.Fidelity.Log10())
}

// checkBounds checks a makespan against a serial lower bound and a log10
// fidelity against 0.
func checkBounds(boundUS, makespanUS, log10F float64) error {
	if makespanUS < boundUS-1e-6 {
		return fmt.Errorf("makespan %.3f us is below the busiest qubit's serial gate time %.3f us", makespanUS, boundUS)
	}
	if !(log10F <= 0) {
		return fmt.Errorf("log10 fidelity %v is above 0", log10F)
	}
	return nil
}

// checkMeasurement checks one harness measurement against the circuit's
// own counts.
func checkMeasurement(k gateCounts, m mussti.Measurement) error {
	if m.TwoQubit != k.twoQubit {
		return fmt.Errorf("reports %d two-qubit gates, circuit has %d", m.TwoQubit, k.twoQubit)
	}
	return checkBounds(k.serialUS, m.TimeUS, m.Log10F)
}

// sameMeasurement reports whether two measurements agree in everything but
// the wall-clock CompileTime.
func sameMeasurement(a, b mussti.Measurement) bool {
	a.CompileTime, b.CompileTime = 0, 0
	return a == b
}

// checkStatus accepts only 200 OK; an admission rejection (429) is a
// failure like any other error status.
func checkStatus(code int) error {
	switch code {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests:
		return fmt.Errorf("request rejected by admission control (429)")
	default:
		return fmt.Errorf("status %d", code)
	}
}
