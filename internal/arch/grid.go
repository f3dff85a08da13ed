package arch

import (
	"fmt"
	"math"
)

// Grid is the monolithic QCCD lattice the baseline compilers target: a
// rows×cols array of uniform traps. Any trap may host two-qubit gates
// (the paper's critique of traditional QCCD compilers: gates "applied in
// arbitrary zones"); ions shuttle between 4-adjacent traps.
type Grid struct {
	Rows, Cols int
	// Capacity is the per-trap chain capacity.
	Capacity int
	// TrapPitchUM is the centre-to-centre distance between adjacent traps.
	TrapPitchUM float64
}

// NewGrid builds a rows×cols grid of traps with the given capacity. It
// returns Validate's error for a grid that is empty or exceeds a cap.
func NewGrid(rows, cols, capacity int) (*Grid, error) {
	g := &Grid{Rows: rows, Cols: cols, Capacity: capacity, TrapPitchUM: 100}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Validate reports whether the grid is buildable: positive dimensions, at
// most MaxZones traps, a trap capacity in [2, circuit.MaxQubits] and a
// positive, finite pitch (a negative one would make shuttles shorten the
// makespan). Each dimension is bounded before Rows × Cols is formed, so the
// product cannot overflow. Grids that arrive as literals (the dist wire
// decoder builds them so) are checked here before they become compile
// targets.
func (g *Grid) Validate() error {
	if g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("arch: grid dimensions must be positive, got %dx%d", g.Rows, g.Cols)
	}
	if g.Rows > MaxZones || g.Cols > MaxZones || g.Rows*g.Cols > MaxZones {
		return fmt.Errorf("arch: grid %dx%d exceeds the %d-trap cap", g.Rows, g.Cols, MaxZones)
	}
	if !(g.TrapPitchUM > 0) || math.IsInf(g.TrapPitchUM, 1) {
		return fmt.Errorf("arch: grid trap pitch must be positive and finite, got %g", g.TrapPitchUM)
	}
	return checkCapacity("grid trap", g.Capacity)
}

// MustNewGrid is NewGrid for known-good parameters; it panics on error.
func MustNewGrid(rows, cols, capacity int) *Grid {
	g, err := NewGrid(rows, cols, capacity)
	if err != nil {
		panic(err)
	}
	return g
}

// NumTraps returns rows*cols.
func (g *Grid) NumTraps() int { return g.Rows * g.Cols }

// String summarises the grid, e.g. "QCCD grid 2x3, trap capacity 8".
func (g *Grid) String() string {
	return fmt.Sprintf("QCCD grid %dx%d, trap capacity %d", g.Rows, g.Cols, g.Capacity)
}

// TotalCapacity returns the total ion capacity.
func (g *Grid) TotalCapacity() int { return g.NumTraps() * g.Capacity }

// RowCol converts a trap ID to grid coordinates.
func (g *Grid) RowCol(t int) (row, col int) { return t / g.Cols, t % g.Cols }

// TrapAt converts grid coordinates to a trap ID.
func (g *Grid) TrapAt(row, col int) int { return row*g.Cols + col }

// Neighbors returns the 4-adjacent traps of t.
func (g *Grid) Neighbors(t int) []int {
	r, c := g.RowCol(t)
	out := make([]int, 0, 4)
	if r > 0 {
		out = append(out, g.TrapAt(r-1, c))
	}
	if r+1 < g.Rows {
		out = append(out, g.TrapAt(r+1, c))
	}
	if c > 0 {
		out = append(out, g.TrapAt(r, c-1))
	}
	if c+1 < g.Cols {
		out = append(out, g.TrapAt(r, c+1))
	}
	return out
}

// Distance returns the Manhattan hop count between two traps; each hop is
// one shuttle operation for grid compilers.
func (g *Grid) Distance(a, b int) int {
	ra, ca := g.RowCol(a)
	rb, cb := g.RowCol(b)
	dr, dc := ra-rb, ca-cb
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// Device adapts the grid to the zone/module Device model so the MUSS-TI
// core scheduler can drive a standard QCCD lattice directly — Table 2 of
// the paper "appl[ies] MUSS-TI on these standard QCCD structures". The
// whole grid becomes one module whose traps are uniform gate-capable
// (operation-level) zones in row-major order, each at its (column, row) as
// (Pos, Row), so IntraDistanceUM is Distance times the trap pitch. There
// is no optical zone, so no fiber gates or SWAP insertion arise, and
// MUSS-TI's advantage comes from scheduling alone.
func (g *Grid) Device() *Device {
	d := &Device{TrapCapacity: g.Capacity, ZonePitchUM: g.TrapPitchUM}
	mod := Module{ID: 0, MaxIons: g.TotalCapacity()}
	for t := 0; t < g.NumTraps(); t++ {
		row, col := g.RowCol(t)
		z := Zone{ID: t, Module: 0, Level: LevelOperation, Capacity: g.Capacity, Pos: col, Row: row}
		d.Zones = append(d.Zones, z)
		mod.Zones = append(mod.Zones, z.ID)
	}
	d.Modules = []Module{mod}
	d.indexLevels()
	return d
}

// PathTowards returns the next trap on a shortest path from a to b
// (row-major: resolve the row difference first). a == b returns a.
func (g *Grid) PathTowards(a, b int) int {
	if a == b {
		return a
	}
	ra, ca := g.RowCol(a)
	rb, cb := g.RowCol(b)
	switch {
	case ra < rb:
		return g.TrapAt(ra+1, ca)
	case ra > rb:
		return g.TrapAt(ra-1, ca)
	case ca < cb:
		return g.TrapAt(ra, ca+1)
	default:
		return g.TrapAt(ra, ca-1)
	}
}
