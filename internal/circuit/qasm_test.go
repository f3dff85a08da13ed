package circuit

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestQASMRoundTrip(t *testing.T) {
	c := New("rt", 4)
	c.H(0)
	c.X(1)
	c.RZ(math.Pi/4, 2)
	c.CX(0, 1)
	c.CP(math.Pi/8, 2, 3)
	c.MS(1, 3)
	c.Swap(0, 3)
	c.Measure(0)
	c.Measure(3)

	var buf bytes.Buffer
	if err := c.WriteQASM(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ParseQASM("rt", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if got.NumQubits != c.NumQubits {
		t.Fatalf("qubits = %d, want %d", got.NumQubits, c.NumQubits)
	}
	if len(got.Gates) != len(c.Gates) {
		t.Fatalf("gates = %d, want %d", len(got.Gates), len(c.Gates))
	}
	for i := range c.Gates {
		a, b := c.Gates[i], got.Gates[i]
		if a.Kind != b.Kind || a.Qubits != b.Qubits {
			t.Errorf("gate %d: got %v, want %v", i, b, a)
		}
		if math.Abs(a.Param-b.Param) > 1e-12 {
			t.Errorf("gate %d param: got %v, want %v", i, b.Param, a.Param)
		}
	}
}

func TestQASMWriteHasHeader(t *testing.T) {
	c := New("h", 2)
	c.H(0)
	var buf bytes.Buffer
	if err := c.WriteQASM(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"OPENQASM 2.0;", "qreg q[2];", "h q[0];"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "creg") {
		t.Error("creg emitted without measurements")
	}
	c.Measure(1)
	buf.Reset()
	if err := c.WriteQASM(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "creg c[2];") {
		t.Error("creg missing with measurements")
	}
}

func TestParseQASMBasics(t *testing.T) {
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];   // comment
rz(pi/2) q[2];
cu1(pi/4) q[1],q[2];
measure q[0] -> c[0];
`
	c, err := ParseQASM("basic", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 {
		t.Fatalf("qubits = %d, want 3", c.NumQubits)
	}
	kinds := []Kind{KindH, KindCX, KindRZ, KindCP, KindMeasure}
	if len(c.Gates) != len(kinds) {
		t.Fatalf("gates = %d, want %d", len(c.Gates), len(kinds))
	}
	for i, k := range kinds {
		if c.Gates[i].Kind != k {
			t.Errorf("gate %d kind = %v, want %v", i, c.Gates[i].Kind, k)
		}
	}
	if got := c.Gates[2].Param; math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("rz angle = %v, want pi/2", got)
	}
}

func TestParseQASMCCXLowering(t *testing.T) {
	src := "qreg q[3];\nccx q[0],q[1],q[2];\n"
	c, err := ParseQASM("ccx", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.TwoQubit != 6 {
		t.Errorf("ccx lowered to %d 2q gates, want 6", s.TwoQubit)
	}
}

func TestParseQASMErrors(t *testing.T) {
	cases := map[string]string{
		"no qreg":        "h q[0];",
		"unknown gate":   "qreg q[2];\nfrobnicate q[0];",
		"out of range":   "qreg q[2];\nh q[5];",
		"bad arity":      "qreg q[2];\ncx q[0];",
		"double qreg":    "qreg q[2];\nqreg r[2];",
		"unclosed param": "qreg q[2];\nrz(1.0 q[0];",
		"same operands":  "qreg q[2];\ncx q[1],q[1];",
		"ccx range":      "qreg q[2];\nccx q[0],q[1],q[5];",
		"ccx before reg": "ccx q[0],q[1],q[2];\nqreg q[3];",
		"ccx same":       "qreg q[3];\nccx q[0],q[2],q[2];",
	}
	for name, src := range cases {
		if _, err := ParseQASM(name, strings.NewReader(src)); err == nil {
			t.Errorf("%s: parse accepted %q", name, src)
		}
	}
}

// TestParseQASMQubitCap: a qreg wider than MaxQubits is refused by the
// parser itself, before any circuit of that width exists.
func TestParseQASMQubitCap(t *testing.T) {
	for _, n := range []int{MaxQubits + 1, 1 << 30} {
		src := fmt.Sprintf("qreg q[%d];", n)
		_, err := ParseQASM("wide", strings.NewReader(src))
		if err == nil || !strings.Contains(err.Error(), "qubit cap") {
			t.Errorf("%s: err = %v, want the qubit-cap error", src, err)
		}
	}
}

func TestParseAngle(t *testing.T) {
	cases := map[string]float64{
		"pi":       math.Pi,
		"-pi":      -math.Pi,
		"pi/2":     math.Pi / 2,
		"3*pi/4":   3 * math.Pi / 4,
		"0.5":      0.5,
		"-0.25":    -0.25,
		"2*pi":     2 * math.Pi,
		"pi/2/2":   math.Pi / 4,
		"1.5e-3":   0.0015,
		"pi*0.125": math.Pi * 0.125,
	}
	for src, want := range cases {
		got, err := parseAngle(src)
		if err != nil {
			t.Errorf("parseAngle(%q): %v", src, err)
			continue
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("parseAngle(%q) = %v, want %v", src, got, want)
		}
	}
	for _, bad := range []string{"", "pi/0", "banana"} {
		if _, err := parseAngle(bad); err == nil {
			t.Errorf("parseAngle(%q) accepted", bad)
		}
	}
}

func TestPropertyQASMRoundTripRandomCircuits(t *testing.T) {
	// Property: WriteQASM → ParseQASM is the identity on kinds, operands
	// and angles for random circuits over the exportable gate set.
	rng := func(seed int64) *Circuit {
		r := newDetRand(seed)
		c := New("prop", 7)
		for i := 0; i < 50; i++ {
			switch r.next() % 5 {
			case 0:
				c.H(int(r.next() % 7))
			case 1:
				c.RZ(float64(r.next()%628)/100, int(r.next()%7))
			case 2:
				a, b := int(r.next()%7), int(r.next()%7)
				if a != b {
					c.CX(a, b)
				}
			case 3:
				a, b := int(r.next()%7), int(r.next()%7)
				if a != b {
					c.CP(float64(r.next()%314)/100, a, b)
				}
			default:
				a, b := int(r.next()%7), int(r.next()%7)
				if a != b {
					c.MS(a, b)
				}
			}
		}
		c.Measure(0)
		return c
	}
	for seed := int64(0); seed < 25; seed++ {
		orig := rng(seed)
		var buf bytes.Buffer
		if err := orig.WriteQASM(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ParseQASM("prop", &buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got.Gates) != len(orig.Gates) {
			t.Fatalf("seed %d: %d gates, want %d", seed, len(got.Gates), len(orig.Gates))
		}
		for i := range orig.Gates {
			a, b := orig.Gates[i], got.Gates[i]
			if a.Kind != b.Kind || a.Qubits != b.Qubits || math.Abs(a.Param-b.Param) > 1e-9 {
				t.Fatalf("seed %d gate %d: %v != %v", seed, i, b, a)
			}
		}
	}
}

// newDetRand is a tiny deterministic generator for the property test.
type detRand struct{ s uint64 }

func newDetRand(seed int64) *detRand { return &detRand{s: uint64(seed)*2654435761 + 1} }

func (r *detRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func TestParseQASMMultipleStatementsPerLine(t *testing.T) {
	src := "qreg q[2]; h q[0]; cx q[0],q[1];"
	c, err := ParseQASM("multi", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 {
		t.Errorf("gates = %d, want 2", len(c.Gates))
	}
}

func TestParseQASMLineCap(t *testing.T) {
	long := "qreg q[2];\n// " + strings.Repeat("x", 200<<10) + "\ncx q[0],q[1];\n"
	if _, err := ParseQASM("long", strings.NewReader(long)); err != nil {
		t.Fatalf("200 KiB line rejected: %v", err)
	}
	tooLong := "qreg q[2];\n// " + strings.Repeat("x", maxQASMLine) + "\ncx q[0],q[1];\n"
	if _, err := ParseQASM("toolong", strings.NewReader(tooLong)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong for a line over 1 MiB", err)
	}
}

// TestParseQASMAllocatesWithInput pins that parsing a small source allocates
// in proportion to it, not a fixed line buffer per call.
func TestParseQASMAllocatesWithInput(t *testing.T) {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[40];\n")
	for i := 0; b.Len() < 2000; i++ {
		fmt.Fprintf(&b, "cx q[%d],q[%d];\n", i%40, (i+1)%40)
	}
	src := b.String()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ParseQASM("small", strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 128<<10 {
		t.Errorf("parsing a %d-byte source allocates %d B per call, want under 128 KiB", len(src), got)
	}
}

// FuzzParseQASM is the parser's robustness fuzz target: arbitrary source
// either fails to parse or yields a circuit within the qubit cap whose every
// operand indexes its register, and nothing panics. The seed corpus under
// testdata/fuzz mixes valid programs with out-of-range operands, over-cap
// registers and unsupported statements.
func FuzzParseQASM(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseQASM("fuzz", strings.NewReader(src))
		if err != nil {
			return
		}
		if c.NumQubits < 1 || c.NumQubits > MaxQubits {
			t.Fatalf("accepted a %d-qubit register", c.NumQubits)
		}
		for i, g := range c.Gates {
			for _, q := range g.Qubits[:g.Kind.Arity()] {
				if q < 0 || q >= c.NumQubits {
					t.Fatalf("gate %d %v: operand %d outside [0,%d)", i, g, q, c.NumQubits)
				}
			}
		}
	})
}
