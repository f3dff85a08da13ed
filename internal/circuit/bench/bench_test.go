package bench

import (
	"strings"
	"testing"

	"mussti/internal/circuit"
)

func TestByNameKnownApps(t *testing.T) {
	all := append(append(append([]string{}, SmallSuite()...), MediumSuite()...), LargeSuite()...)
	for _, name := range all {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name != name {
			t.Errorf("%s: circuit name %q", name, c.Name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: invalid circuit: %v", name, err)
		}
	}
}

func TestByNameQubitCounts(t *testing.T) {
	for _, name := range []string{"GHZ_n32", "Adder_n128", "SQRT_n299", "SC_n274", "RAN_n256"} {
		c := MustByName(name)
		i := strings.LastIndex(name, "_n")
		want := name[i+2:]
		if got := c.NumQubits; itoa(got) != want {
			t.Errorf("%s: qubits = %d", name, got)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestByNameErrors(t *testing.T) {
	for _, bad := range []string{"GHZ", "GHZ_n", "GHZ_nXY", "Frob_n32", "GHZ_n0", "_n32"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}

// TestByNameQubitCap: a name asking for more than circuit.MaxQubits qubits
// is refused before its generator runs.
func TestByNameQubitCap(t *testing.T) {
	for _, name := range []string{"qft_n1025", "qft_n1000000", "GHZ_n2147483647"} {
		_, err := ByName(name)
		if err == nil || !strings.Contains(err.Error(), "qubit cap") {
			t.Errorf("ByName(%q): err = %v, want the qubit-cap error", name, err)
		}
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName did not panic on bad name")
		}
	}()
	MustByName("nonsense")
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range []string{"RAN_n64", "SC_n64", "SQRT_n40", "Adder_n32"} {
		a := MustByName(name)
		b := MustByName(name)
		if len(a.Gates) != len(b.Gates) {
			t.Fatalf("%s: gate counts differ: %d vs %d", name, len(a.Gates), len(b.Gates))
		}
		for i := range a.Gates {
			if a.Gates[i] != b.Gates[i] {
				t.Fatalf("%s: gate %d differs: %v vs %v", name, i, a.Gates[i], b.Gates[i])
			}
		}
	}
}

func TestTwoQubitGateCountsInPaperRange(t *testing.T) {
	// "a 2-qubit gate number ranging from 31 to 4376" (§4).
	min, max := 1<<30, 0
	all := append(append(append([]string{}, SmallSuite()...), MediumSuite()...), LargeSuite()...)
	for _, name := range all {
		s := MustByName(name).Stats()
		if s.TwoQubit < min {
			min = s.TwoQubit
		}
		if s.TwoQubit > max {
			max = s.TwoQubit
		}
	}
	if min < 16 || min > 200 {
		t.Errorf("smallest 2q gate count %d outside the paper's ballpark (31)", min)
	}
	if max < 2000 || max > 8000 {
		t.Errorf("largest 2q gate count %d outside the paper's ballpark (4376)", max)
	}
}

func TestGHZStructure(t *testing.T) {
	c := GHZ(16)
	s := c.Stats()
	if s.TwoQubit != 15 {
		t.Errorf("GHZ(16) 2q gates = %d, want 15", s.TwoQubit)
	}
	// Chain: each gate links i, i+1.
	i := 0
	for _, g := range c.Gates {
		if !g.Kind.IsTwoQubit() {
			continue
		}
		if g.Qubits[0] != i || g.Qubits[1] != i+1 {
			t.Errorf("GHZ gate %d links %v, want (%d,%d)", i, g.Qubits, i, i+1)
		}
		i++
	}
}

func TestBVStructure(t *testing.T) {
	c := BV(32)
	anc := 31
	for _, g := range c.Gates {
		if g.Kind.IsTwoQubit() && g.Qubits[1] != anc {
			t.Errorf("BV 2q gate %v does not target ancilla %d", g, anc)
		}
	}
	if s := c.Stats(); s.TwoQubit != 16 {
		t.Errorf("BV(32) 2q gates = %d, want 16", s.TwoQubit)
	}
}

func TestQAOAIsNearestNeighbourRing(t *testing.T) {
	n := 24
	c := QAOA(n)
	for _, g := range c.Gates {
		if !g.Kind.IsTwoQubit() {
			continue
		}
		d := g.Qubits[1] - g.Qubits[0]
		if d < 0 {
			d = -d
		}
		if d != 1 && d != n-1 {
			t.Errorf("QAOA edge %v is not a ring edge", g.Qubits)
		}
	}
	if s := c.Stats(); s.TwoQubit != n {
		t.Errorf("QAOA(%d) edges = %d, want %d", n, s.TwoQubit, n)
	}
}

func TestQFTIsAllToAll(t *testing.T) {
	n := 12
	c := QFT(n)
	s := c.Stats()
	wantCP := n * (n - 1) / 2
	wantTotal := wantCP + n/2 // CPs plus the reversal swaps
	if s.TwoQubit != wantTotal {
		t.Errorf("QFT(%d) 2q gates = %d, want %d", n, s.TwoQubit, wantTotal)
	}
	// All-to-all: every unordered pair interacts at least once via CP.
	pairs := c.InteractionCount()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pairs[[2]int{i, j}] == 0 {
				t.Fatalf("QFT(%d): pair (%d,%d) never interacts", n, i, j)
			}
		}
	}
}

func TestAdderLocality(t *testing.T) {
	c := Adder(32)
	// Interleaved Cuccaro: every 2q gate spans at most 3 indices.
	for _, g := range c.Gates {
		if !g.Kind.IsTwoQubit() {
			continue
		}
		d := g.Qubits[1] - g.Qubits[0]
		if d < 0 {
			d = -d
		}
		if d > 3 {
			t.Errorf("Adder gate %v spans %d indices, want ≤3", g.Qubits, d)
		}
	}
}

func TestSQRTIsCommunicationHeavy(t *testing.T) {
	c := SQRT(64)
	long := 0
	total := 0
	for _, g := range c.Gates {
		if !g.Kind.IsTwoQubit() {
			continue
		}
		total++
		d := g.Qubits[1] - g.Qubits[0]
		if d < 0 {
			d = -d
		}
		if d >= 16 {
			long++
		}
	}
	if long*3 < total {
		t.Errorf("SQRT long-range gates = %d of %d; want at least a third", long, total)
	}
}

func TestSCFitsGrid(t *testing.T) {
	c := SC(30) // non-square count exercises clipping
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.TwoQubit == 0 {
		t.Error("SC(30) has no 2q gates")
	}
}

func TestFamiliesSorted(t *testing.T) {
	fams := Families()
	if len(fams) != 14 {
		t.Errorf("families = %v, want 14 entries", fams)
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1] >= fams[i] {
			t.Errorf("families not sorted: %v", fams)
		}
	}
}

func TestSuitesMatchPaperScales(t *testing.T) {
	checkRange := func(suite []string, lo, hi int) {
		t.Helper()
		for _, name := range suite {
			n := MustByName(name).NumQubits
			if n < lo || n > hi {
				t.Errorf("%s: %d qubits outside [%d,%d]", name, n, lo, hi)
			}
		}
	}
	checkRange(SmallSuite(), 30, 32)
	checkRange(MediumSuite(), 117, 128)
	checkRange(LargeSuite(), 256, 299)
}

func TestCaseInsensitiveFamilies(t *testing.T) {
	a := MustByName("ghz_n16")
	b := MustByName("GHZ_n16")
	if len(a.Gates) != len(b.Gates) {
		t.Error("family matching is case-sensitive")
	}
}

func TestGeneratedCircuitsEndWithMeasurement(t *testing.T) {
	for _, name := range SmallSuite() {
		c := MustByName(name)
		found := false
		for _, g := range c.Gates {
			if g.Kind == circuit.KindMeasure {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no measurements", name)
		}
	}
}
