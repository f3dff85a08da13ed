package arch

import (
	"fmt"
	"strings"
)

// Target is a machine a compiler can schedule a circuit onto. Both
// architectures of the paper implement it — *Device (the EML-QCCD machine
// MUSS-TI targets) and *Grid (the monolithic QCCD lattice the baseline
// compilers target) — so the compiler registry can hand any circuit/machine
// pair to any registered compiler and let the compiler decide whether it
// supports that machine shape.
type Target interface {
	// QubitCapacity is the total number of ions the machine can hold; a
	// compiler rejects circuits wider than this.
	QubitCapacity() int
	// CacheKey renders the machine's full configuration as a deterministic
	// string: equal machines yield equal keys in any process, so the key is
	// safe to use in shared or persisted measurement caches.
	CacheKey() string
	// String summarises the machine for logs and table banners.
	String() string
}

// Compile-time checks that both architectures satisfy Target.
var (
	_ Target = (*Device)(nil)
	_ Target = (*Grid)(nil)
)

// QubitCapacity implements Target; it equals Capacity().
func (d *Device) QubitCapacity() int { return d.Capacity() }

// CacheKey implements Target: a deterministic rendering of every structural
// field (zones, levels, capacities, coordinates, module caps, pitch). The
// coordinates are the whole distance geometry, so devices differing only in
// shape (a 2x3 vs a 3x2 grid adapter) get different keys. A zone renders as
// "id:level/capacity@pos", with ",row" appended when its row is not 0.
func (d *Device) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "eml{cap=%d pitch=%g", d.TrapCapacity, d.ZonePitchUM)
	for _, m := range d.Modules {
		fmt.Fprintf(&b, " m%d[max=%d", m.ID, m.MaxIons)
		for _, id := range m.Zones {
			z := d.Zones[id]
			fmt.Fprintf(&b, " %d:%s/%d@%d", z.ID, z.Level, z.Capacity, z.Pos)
			if z.Row != 0 {
				fmt.Fprintf(&b, ",%d", z.Row)
			}
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}

// QubitCapacity implements Target; it equals TotalCapacity(). (The method
// name avoids the Capacity field, which is the per-trap chain capacity.)
func (g *Grid) QubitCapacity() int { return g.TotalCapacity() }

// CacheKey implements Target: grids are fully described by their dimensions,
// per-trap capacity and pitch.
func (g *Grid) CacheKey() string {
	return fmt.Sprintf("grid{%dx%d cap=%d pitch=%g}", g.Rows, g.Cols, g.Capacity, g.TrapPitchUM)
}

// CacheKey renders an EML-QCCD build description deterministically, the
// Config-level counterpart of Device.CacheKey for measurement-cache keys.
// Config is a flat value type, so the rendering is stable across processes.
func (c Config) CacheKey() string {
	return fmt.Sprintf("emlcfg%+v", c)
}
