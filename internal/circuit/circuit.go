package circuit

import (
	"errors"
	"fmt"
)

// Circuit is an ordered list of gates over NumQubits qubits.
//
// The zero value is an empty circuit over zero qubits; use New to size it.
type Circuit struct {
	// Name labels the circuit in reports ("Adder_n32", "QFT_n32", ...).
	Name string
	// NumQubits is the width of the register.
	NumQubits int
	// Gates is the program order; dependencies are implied by operand overlap.
	Gates []Gate
}

// MaxQubits bounds the register width of every circuit that arrives from
// outside the program — a parsed qreg, a generated benchmark's "_nNN" — so a
// few bytes of input cannot ask for a device of millions of modules or a
// benchmark of billions of gates. It is 3.4× the paper's largest point,
// SQRT_n299.
const MaxQubits = 1024

// New returns an empty circuit over n qubits.
func New(name string, n int) *Circuit {
	return &Circuit{Name: name, NumQubits: n}
}

// PerQubitGates returns, for every qubit, the indices into Gates of the
// gates touching it, in program order — the per-qubit timeline both
// schedulers walk with a cursor. All rows are carved from one backing array
// sized by a counting pass, so the whole structure costs three allocations
// regardless of circuit size.
func (c *Circuit) PerQubitGates() [][]int {
	counts := make([]int, c.NumQubits)
	total := 0
	for _, g := range c.Gates {
		switch g.Kind.Arity() {
		case 1:
			counts[g.Qubits[0]]++
			total++
		case 2:
			counts[g.Qubits[0]]++
			counts[g.Qubits[1]]++
			total += 2
		}
	}
	backing := make([]int, total)
	out := make([][]int, c.NumQubits)
	off := 0
	for q, cnt := range counts {
		out[q] = backing[off : off : off+cnt]
		off += cnt
	}
	for gi, g := range c.Gates {
		switch g.Kind.Arity() {
		case 1:
			out[g.Qubits[0]] = append(out[g.Qubits[0]], gi)
		case 2:
			out[g.Qubits[0]] = append(out[g.Qubits[0]], gi)
			out[g.Qubits[1]] = append(out[g.Qubits[1]], gi)
		}
	}
	return out
}

// Append adds a gate, validating the operands against the register width.
// It panics on malformed gates: circuit construction errors are programming
// errors, matching how the benchmark generators use it.
func (c *Circuit) Append(g Gate) {
	if err := c.check(g); err != nil {
		panic(fmt.Sprintf("circuit %q: %v", c.Name, err))
	}
	c.Gates = append(c.Gates, g)
}

func (c *Circuit) check(g Gate) error {
	switch g.Kind.Arity() {
	case 1:
		if g.Qubits[0] < 0 || g.Qubits[0] >= c.NumQubits {
			return fmt.Errorf("gate %v: qubit out of range [0,%d)", g, c.NumQubits)
		}
	case 2:
		a, b := g.Qubits[0], g.Qubits[1]
		if a < 0 || a >= c.NumQubits || b < 0 || b >= c.NumQubits {
			return fmt.Errorf("gate %v: qubit out of range [0,%d)", g, c.NumQubits)
		}
		if a == b {
			return fmt.Errorf("gate %v: identical operands", g)
		}
	case 0:
		if g.Kind != KindBarrier {
			return fmt.Errorf("gate %v: invalid kind", g)
		}
	}
	return nil
}

// H, X, Y, Z, S, T append the corresponding one-qubit gate.
func (c *Circuit) H(q int) { c.Append(NewGate1(KindH, q)) }
func (c *Circuit) X(q int) { c.Append(NewGate1(KindX, q)) }
func (c *Circuit) Y(q int) { c.Append(NewGate1(KindY, q)) }
func (c *Circuit) Z(q int) { c.Append(NewGate1(KindZ, q)) }
func (c *Circuit) S(q int) { c.Append(NewGate1(KindS, q)) }
func (c *Circuit) T(q int) { c.Append(NewGate1(KindT, q)) }

// Tdg appends the adjoint T gate.
func (c *Circuit) Tdg(q int) { c.Append(NewGate1(KindTdg, q)) }

// RX, RY, RZ append parameterised one-qubit rotations.
func (c *Circuit) RX(theta float64, q int) {
	g := NewGate1(KindRX, q)
	g.Param = theta
	c.Append(g)
}
func (c *Circuit) RY(theta float64, q int) {
	g := NewGate1(KindRY, q)
	g.Param = theta
	c.Append(g)
}
func (c *Circuit) RZ(theta float64, q int) {
	g := NewGate1(KindRZ, q)
	g.Param = theta
	c.Append(g)
}

// CX, CZ, MS, Swap append the corresponding two-qubit gate.
func (c *Circuit) CX(ctrl, tgt int) { c.Append(NewGate2(KindCX, ctrl, tgt)) }
func (c *Circuit) CZ(a, b int)      { c.Append(NewGate2(KindCZ, a, b)) }
func (c *Circuit) MS(a, b int)      { c.Append(NewGate2(KindMS, a, b)) }
func (c *Circuit) Swap(a, b int)    { c.Append(NewGate2(KindSwap, a, b)) }

// CP appends a controlled-phase rotation (used by QFT).
func (c *Circuit) CP(theta float64, a, b int) {
	g := NewGate2(KindCP, a, b)
	g.Param = theta
	c.Append(g)
}

// RZZ appends a ZZ interaction (used by QAOA cost layers).
func (c *Circuit) RZZ(theta float64, a, b int) {
	g := NewGate2(KindRZZ, a, b)
	g.Param = theta
	c.Append(g)
}

// Measure appends a computational-basis measurement of q.
func (c *Circuit) Measure(q int) { c.Append(NewGate1(KindMeasure, q)) }

// Toffoli appends a textbook 6-CX + 7-T decomposition of CCX(a, b, tgt).
// Trapped-ion hardware has no native three-qubit gate, so the benchmark
// generators that need CCX (Adder, SQRT) lower it here.
func (c *Circuit) Toffoli(a, b, tgt int) {
	c.H(tgt)
	c.CX(b, tgt)
	c.Tdg(tgt)
	c.CX(a, tgt)
	c.T(tgt)
	c.CX(b, tgt)
	c.Tdg(tgt)
	c.CX(a, tgt)
	c.T(b)
	c.T(tgt)
	c.H(tgt)
	c.CX(a, b)
	c.T(a)
	c.Tdg(b)
	c.CX(a, b)
}

// Stats summarises a circuit for reports.
type Stats struct {
	Qubits    int
	Gates     int
	OneQubit  int
	TwoQubit  int
	Measures  int
	Depth     int // two-qubit-gate depth (layers of the 2q interaction DAG)
	UsedPairs int // distinct unordered interacting qubit pairs
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{Qubits: c.NumQubits, Gates: len(c.Gates)}
	level := make([]int, c.NumQubits)
	pairs := make(map[[2]int]struct{})
	for _, g := range c.Gates {
		switch {
		case g.Kind == KindMeasure:
			s.Measures++
		case g.Kind.IsOneQubit():
			s.OneQubit++
		case g.Kind.IsTwoQubit():
			s.TwoQubit++
			a, b := g.Qubits[0], g.Qubits[1]
			if a > b {
				a, b = b, a
			}
			pairs[[2]int{a, b}] = struct{}{}
			l := max(level[a], level[b]) + 1
			level[a], level[b] = l, l
			if l > s.Depth {
				s.Depth = l
			}
		}
	}
	s.UsedPairs = len(pairs)
	return s
}

// TwoQubitGates returns the indices (into Gates) of all two-qubit gates, in
// program order. The scheduler works on this sequence.
func (c *Circuit) TwoQubitGates() []int {
	var idx []int
	for i, g := range c.Gates {
		if g.Kind.IsTwoQubit() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Reverse returns a new circuit with the gate order inverted. This is the
// "reversed graph G'" used by the SABRE two-fold initial-mapping search; the
// per-gate adjoints are irrelevant for scheduling, so kinds are kept as-is.
func (c *Circuit) Reverse() *Circuit {
	r := New(c.Name+"_rev", c.NumQubits)
	r.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		r.Gates[len(c.Gates)-1-i] = g
	}
	return r
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	r := New(c.Name, c.NumQubits)
	r.Gates = append([]Gate(nil), c.Gates...)
	return r
}

// Validate checks every gate against the register width. It is used by the
// QASM importer and by tests; generator-built circuits are validated on
// Append.
func (c *Circuit) Validate() error {
	if c.NumQubits <= 0 {
		return errors.New("circuit: non-positive qubit count")
	}
	for i, g := range c.Gates {
		if err := c.check(g); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

// InteractionCount returns, for each unordered qubit pair that interacts,
// the number of two-qubit gates between them. Keys are [2]int{min, max}.
func (c *Circuit) InteractionCount() map[[2]int]int {
	m := make(map[[2]int]int)
	for _, g := range c.Gates {
		if !g.Kind.IsTwoQubit() {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		if a > b {
			a, b = b, a
		}
		m[[2]int{a, b}]++
	}
	return m
}
