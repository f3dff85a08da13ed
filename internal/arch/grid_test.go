package arch

import (
	"math"
	"testing"
	"testing/quick"

	"mussti/internal/circuit"
)

func TestGridBasics(t *testing.T) {
	g := MustNewGrid(3, 4, 16)
	if g.NumTraps() != 12 {
		t.Errorf("traps = %d, want 12", g.NumTraps())
	}
	if g.TotalCapacity() != 192 {
		t.Errorf("capacity = %d, want 192", g.TotalCapacity())
	}
	r, c := g.RowCol(7)
	if r != 1 || c != 3 {
		t.Errorf("RowCol(7) = %d,%d want 1,3", r, c)
	}
	if g.TrapAt(1, 3) != 7 {
		t.Errorf("TrapAt(1,3) = %d, want 7", g.TrapAt(1, 3))
	}
}

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(0, 3, 8); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewGrid(2, 2, 1); err == nil {
		t.Error("capacity 1 accepted")
	}
}

// TestGridCaps checks the grid caps at and one step over each bound, and
// dimensions whose product overflows int.
func TestGridCaps(t *testing.T) {
	if _, err := NewGrid(64, 64, circuit.MaxQubits); err != nil {
		t.Errorf("64x64 grid at the capacity cap refused: %v", err)
	}
	if _, err := NewGrid(1, MaxZones, 2); err != nil {
		t.Errorf("1x%d grid refused: %v", MaxZones, err)
	}
	for _, g := range []Grid{
		{Rows: 64, Cols: 65, Capacity: 8, TrapPitchUM: 100},
		{Rows: 1, Cols: MaxZones + 1, Capacity: 8, TrapPitchUM: 100},
		{Rows: 2, Cols: 2, Capacity: circuit.MaxQubits + 1, TrapPitchUM: 100},
		{Rows: 1 << 32, Cols: 1 << 32, Capacity: 8, TrapPitchUM: 100},
		{Rows: math.MaxInt, Cols: 2, Capacity: 8, TrapPitchUM: 100},
	} {
		if _, err := NewGrid(g.Rows, g.Cols, g.Capacity); err == nil {
			t.Errorf("grid %dx%d capacity %d accepted", g.Rows, g.Cols, g.Capacity)
		}
		if err := g.Validate(); err == nil {
			t.Errorf("literal grid %dx%d capacity %d validated", g.Rows, g.Cols, g.Capacity)
		}
	}
	// Only a literal can carry a bad pitch: NewGrid sets 100.
	for _, pitch := range []float64{-100, 0, math.NaN(), math.Inf(1)} {
		if err := (&Grid{Rows: 2, Cols: 2, Capacity: 8, TrapPitchUM: pitch}).Validate(); err == nil {
			t.Errorf("grid with pitch %v validated", pitch)
		}
	}
}

func TestGridNeighbors(t *testing.T) {
	g := MustNewGrid(3, 3, 8)
	cases := map[int]int{0: 2, 1: 3, 4: 4, 8: 2}
	for trap, want := range cases {
		if got := len(g.Neighbors(trap)); got != want {
			t.Errorf("neighbors(%d) = %d, want %d", trap, got, want)
		}
	}
	for _, nb := range g.Neighbors(4) {
		if g.Distance(4, nb) != 1 {
			t.Errorf("neighbor %d of 4 at distance %d", nb, g.Distance(4, nb))
		}
	}
}

func TestGridDistanceManhattan(t *testing.T) {
	g := MustNewGrid(4, 5, 8)
	if d := g.Distance(0, g.TrapAt(3, 4)); d != 7 {
		t.Errorf("corner distance = %d, want 7", d)
	}
	if d := g.Distance(3, 3); d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
}

func TestPathTowardsConverges(t *testing.T) {
	g := MustNewGrid(4, 5, 8)
	f := func(a, b uint8) bool {
		from := int(a) % g.NumTraps()
		to := int(b) % g.NumTraps()
		cur := from
		steps := 0
		for cur != to {
			next := g.PathTowards(cur, to)
			if g.Distance(next, to) != g.Distance(cur, to)-1 {
				return false // each step must reduce distance by one
			}
			cur = next
			steps++
			if steps > g.Rows+g.Cols {
				return false
			}
		}
		return steps == g.Distance(from, to)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGridDevice(t *testing.T) {
	g := MustNewGrid(2, 3, 8)
	d := g.Device()
	if len(d.Modules) != 1 {
		t.Fatalf("grid device modules = %d, want 1", len(d.Modules))
	}
	if len(d.Zones) != 6 {
		t.Fatalf("grid device zones = %d, want 6", len(d.Zones))
	}
	for _, z := range d.Zones {
		if z.Level != LevelOperation {
			t.Errorf("zone %d level = %v, want operation", z.ID, z.Level)
		}
		if z.Capacity != 8 {
			t.Errorf("zone %d capacity = %d, want 8", z.ID, z.Capacity)
		}
	}
	// Distance uses the lattice metric, not the linear segment.
	if got := d.IntraDistanceUM(0, 3); got != 100 {
		t.Errorf("device distance(0,3) = %v, want 100 (vertical neighbours)", got)
	}
	if got := d.IntraDistanceUM(0, 5); got != 300 {
		t.Errorf("device distance(0,5) = %v, want 300", got)
	}
	if len(d.OpticalZones()) != 0 {
		t.Error("grid device has optical zones")
	}
}
