package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteQASM renders the circuit as OpenQASM 2.0. The output uses a single
// quantum register q[NumQubits] and, when measurements are present, a
// classical register c of the same width.
func (c *Circuit) WriteQASM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "OPENQASM 2.0;")
	fmt.Fprintln(bw, "include \"qelib1.inc\";")
	fmt.Fprintf(bw, "qreg q[%d];\n", c.NumQubits)
	hasMeasure := false
	for _, g := range c.Gates {
		if g.Kind == KindMeasure {
			hasMeasure = true
			break
		}
	}
	if hasMeasure {
		fmt.Fprintf(bw, "creg c[%d];\n", c.NumQubits)
	}
	for _, g := range c.Gates {
		switch {
		case g.Kind == KindMeasure:
			fmt.Fprintf(bw, "measure q[%d] -> c[%d];\n", g.Qubits[0], g.Qubits[0])
		case g.Kind == KindBarrier:
			fmt.Fprintln(bw, "barrier q;")
		case g.Kind.IsOneQubit():
			if hasParam(g.Kind) {
				fmt.Fprintf(bw, "%s(%s) q[%d];\n", g.Kind, formatAngle(g.Param), g.Qubits[0])
			} else {
				fmt.Fprintf(bw, "%s q[%d];\n", g.Kind, g.Qubits[0])
			}
		case g.Kind.IsTwoQubit():
			if hasParam(g.Kind) {
				fmt.Fprintf(bw, "%s(%s) q[%d],q[%d];\n", g.Kind, formatAngle(g.Param), g.Qubits[0], g.Qubits[1])
			} else {
				fmt.Fprintf(bw, "%s q[%d],q[%d];\n", g.Kind, g.Qubits[0], g.Qubits[1])
			}
		}
	}
	return bw.Flush()
}

func hasParam(k Kind) bool {
	switch k {
	case KindRX, KindRY, KindRZ, KindCP, KindRXX, KindRZZ, KindU:
		return true
	}
	return false
}

func formatAngle(a float64) string {
	return strconv.FormatFloat(a, 'g', -1, 64)
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	// Common aliases found in QASMBench output.
	m["ccx"] = KindInvalid // handled specially by the parser
	m["u1"] = KindRZ
	m["u2"] = KindU
	m["u3"] = KindU
	m["p"] = KindRZ
	m["id"] = KindZ // identity scheduled as a trivial 1q op
	m["cu1"] = KindCP
	m["cphase"] = KindCP
	return m
}()

// maxQASMLine caps one source line. The scanner's buffer starts small and
// grows only as far as the longest line needs, so parsing allocates in
// proportion to the input rather than a fixed megabyte per call.
const maxQASMLine = 1 << 20

// ParseQASM reads a subset of OpenQASM 2.0 sufficient for QASMBench-style
// benchmark files: one qreg, optional cregs, the qelib1 standard gates, and
// ccx (lowered to the Toffoli decomposition). Gate definitions, conditionals
// and loops are not supported and yield an error, as does a line longer than
// 1 MiB.
func ParseQASM(name string, r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxQASMLine)
	c := &Circuit{Name: name}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		// Statements may share a line; split on ';'.
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := parseStatement(c, stmt); err != nil {
				return nil, fmt.Errorf("qasm line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c.NumQubits == 0 {
		return nil, fmt.Errorf("qasm: no qreg declared")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseStatement(c *Circuit, stmt string) error {
	switch {
	case strings.HasPrefix(stmt, "OPENQASM"), strings.HasPrefix(stmt, "include"),
		strings.HasPrefix(stmt, "creg"), strings.HasPrefix(stmt, "barrier"):
		return nil
	case strings.HasPrefix(stmt, "qreg"):
		n, err := parseRegDecl(stmt)
		if err != nil {
			return err
		}
		if c.NumQubits != 0 {
			return fmt.Errorf("multiple qreg declarations")
		}
		c.NumQubits = n
		return nil
	case strings.HasPrefix(stmt, "measure"):
		// measure q[i] -> c[i]
		rest := strings.TrimSpace(strings.TrimPrefix(stmt, "measure"))
		parts := strings.Split(rest, "->")
		q, err := parseQubitRef(strings.TrimSpace(parts[0]))
		if err != nil {
			return err
		}
		c.Gates = append(c.Gates, NewGate1(KindMeasure, q))
		return nil
	}
	return parseGateApplication(c, stmt)
}

func parseRegDecl(stmt string) (int, error) {
	open := strings.Index(stmt, "[")
	closeB := strings.Index(stmt, "]")
	if open < 0 || closeB < open {
		return 0, fmt.Errorf("malformed register declaration %q", stmt)
	}
	n, err := strconv.Atoi(strings.TrimSpace(stmt[open+1 : closeB]))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("malformed register size in %q", stmt)
	}
	if n > MaxQubits {
		return 0, fmt.Errorf("register size %d in %q exceeds the %d-qubit cap", n, stmt, MaxQubits)
	}
	return n, nil
}

func parseQubitRef(s string) (int, error) {
	open := strings.Index(s, "[")
	closeB := strings.Index(s, "]")
	if open < 0 || closeB < open {
		return 0, fmt.Errorf("malformed qubit reference %q", s)
	}
	return strconv.Atoi(strings.TrimSpace(s[open+1 : closeB]))
}

func parseGateApplication(c *Circuit, stmt string) error {
	nameEnd := strings.IndexAny(stmt, "( \t")
	if nameEnd < 0 {
		return fmt.Errorf("malformed statement %q", stmt)
	}
	name := stmt[:nameEnd]
	rest := stmt[nameEnd:]
	param := 0.0
	if strings.HasPrefix(rest, "(") {
		closeP := strings.Index(rest, ")")
		if closeP < 0 {
			return fmt.Errorf("unclosed parameter list in %q", stmt)
		}
		var err error
		param, err = parseAngle(strings.TrimSpace(rest[1:closeP]))
		if err != nil {
			return fmt.Errorf("in %q: %w", stmt, err)
		}
		rest = rest[closeP+1:]
	}
	var qubits []int
	for _, ref := range strings.Split(strings.TrimSpace(rest), ",") {
		ref = strings.TrimSpace(ref)
		if ref == "" {
			continue
		}
		q, err := parseQubitRef(ref)
		if err != nil {
			return fmt.Errorf("in %q: %w", stmt, err)
		}
		qubits = append(qubits, q)
	}
	if name == "ccx" {
		if len(qubits) != 3 {
			return fmt.Errorf("ccx expects 3 operands, got %d", len(qubits))
		}
		c.Toffoli(qubits[0], qubits[1], qubits[2])
		return nil
	}
	kind, ok := kindByName[name]
	if !ok || kind == KindInvalid {
		return fmt.Errorf("unsupported gate %q", name)
	}
	switch kind.Arity() {
	case 1:
		if len(qubits) != 1 {
			return fmt.Errorf("%s expects 1 operand, got %d", name, len(qubits))
		}
		g := NewGate1(kind, qubits[0])
		g.Param = param
		c.Gates = append(c.Gates, g)
	case 2:
		if len(qubits) != 2 {
			return fmt.Errorf("%s expects 2 operands, got %d", name, len(qubits))
		}
		g := NewGate2(kind, qubits[0], qubits[1])
		g.Param = param
		c.Gates = append(c.Gates, g)
	default:
		return fmt.Errorf("unsupported gate %q", name)
	}
	return nil
}

// parseAngle evaluates the tiny angle grammar QASMBench uses:
// float literals, pi, pi/N, N*pi/M, -expr.
func parseAngle(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty angle")
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = strings.TrimSpace(s[1:])
	}
	v, err := parseAngleProduct(s)
	if err != nil {
		return 0, err
	}
	if neg {
		v = -v
	}
	return v, nil
}

func parseAngleProduct(s string) (float64, error) {
	// Split at the rightmost operator so chains associate left-to-right;
	// '*' is checked first, which keeps mixed forms like "pi/2*3" correct.
	if i := strings.LastIndex(s, "*"); i >= 0 {
		a, err := parseAngleProduct(strings.TrimSpace(s[:i]))
		if err != nil {
			return 0, err
		}
		b, err := parseAngleProduct(strings.TrimSpace(s[i+1:]))
		if err != nil {
			return 0, err
		}
		return a * b, nil
	}
	if i := strings.LastIndex(s, "/"); i >= 0 {
		num, err := parseAngleProduct(strings.TrimSpace(s[:i]))
		if err != nil {
			return 0, err
		}
		den, err := parseAngleProduct(strings.TrimSpace(s[i+1:]))
		if err != nil {
			return 0, err
		}
		if den == 0 {
			return 0, fmt.Errorf("division by zero in angle %q", s)
		}
		return num / den, nil
	}
	if s == "pi" {
		return math.Pi, nil
	}
	return strconv.ParseFloat(s, 64)
}
