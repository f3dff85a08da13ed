// Package arch models the two trapped-ion architectures of the MUSS-TI
// paper:
//
//   - the EML-QCCD device (§2.2, Fig. 2): several QCCD modules, each a short
//     linear segment of functional zones — storage (level 0), operation
//     (level 1) and optical (level 2) — linked module-to-module through a
//     photonic entanglement module;
//   - the monolithic QCCD grid (Fig. 1b) that the baseline compilers
//     [55][13][70] target: a rows×cols lattice of uniform traps where any
//     trap may host a two-qubit gate and ions shuttle between adjacent
//     traps.
//
// The package is purely structural: capacities, levels, adjacency and
// distances. Time and fidelity live in internal/physics; occupancy state
// lives in the schedulers.
package arch

import (
	"fmt"
	"slices"
	"strings"

	"mussti/internal/circuit"
)

// Level classifies a zone's role, ordered like the memory hierarchy the
// paper's scheduler mirrors: storage acts as external storage (level 0),
// the operation zone as main memory (level 1), and the optical zone as the
// CPU (level 2).
type Level int

// Zone levels.
const (
	LevelStorage   Level = 0
	LevelOperation Level = 1
	LevelOptical   Level = 2
)

// String returns the zone-level name.
func (l Level) String() string {
	switch l {
	case LevelStorage:
		return "storage"
	case LevelOperation:
		return "operation"
	case LevelOptical:
		return "optical"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// GateCapable reports whether two-qubit gates may execute in a zone of this
// level. Only operation and optical zones have the integrated optical
// waveguides needed to drive MS gates (§2.3).
func (l Level) GateCapable() bool { return l >= LevelOperation }

// Zone is one trap segment inside a module.
type Zone struct {
	// ID is the device-wide zone identifier.
	ID int
	// Module is the owning module's index.
	Module int
	// Level is the functional role.
	Level Level
	// Capacity is the trap capacity (maximum chain length).
	Capacity int
	// Pos and Row place the zone in its module for shuttle distances. On
	// an EML-QCCD segment Pos is the position along the line (segment
	// order: storage…, operation, optical) and Row is 0; on a grid-adapted
	// device Pos is the trap's column and Row its row.
	Pos, Row int
}

// Module is one QCCD unit of the EML device.
type Module struct {
	// ID is the module index.
	ID int
	// Zones lists the module's zone IDs in segment order.
	Zones []int
	// MaxIons caps the total ions the module may hold (32 in the paper).
	MaxIons int
}

// Device is an entanglement-module-linked QCCD machine. Its geometry is
// the zones' coordinates: a shuttle distance is a hop count worked out from
// them, so the device stores nothing per zone pair.
type Device struct {
	Zones   []Zone
	Modules []Module
	// TrapCapacity is the uniform per-zone capacity.
	TrapCapacity int
	// ZonePitchUM is the physical distance between adjacent zones of a
	// module in micrometres; shuttle Move time is distance / speed.
	ZonePitchUM float64

	// byLevel[m*numLevels+l] lists module m's zones at level l in segment
	// order, filled by indexLevels. ZonesByLevel answers from it without
	// allocating; when nil (a hand-assembled Device literal) it falls back
	// to a per-call scan.
	byLevel [][]int
}

// numLevels is the number of zone levels, storage through optical.
const numLevels = int(LevelOptical) + 1

// Config describes an EML-QCCD build.
type Config struct {
	// Modules is the number of QCCD units.
	Modules int
	// TrapCapacity is the per-zone chain capacity (16 in the paper's
	// main configuration; Table 2 uses 12 and 8).
	TrapCapacity int
	// StorageZones and OpticalZones per module; the paper's default is
	// 2 storage + 1 operation + 1 optical, and Fig. 12 studies 2 optical.
	StorageZones   int
	OperationZones int
	OpticalZones   int
	// OpticalCapacity is the optical zone's chain capacity; 0 means "same
	// as TrapCapacity", the paper's uniform-capacity reading. Lower values
	// model port-limited interface traps ("only the minimal number of
	// optical ports necessary", §2.2); examples/capacity_tuning sweeps
	// this trade-off.
	OpticalCapacity int
	// MaxIonsPerModule caps ions per module (32 in the paper); 0 means
	// the sum of zone capacities.
	MaxIonsPerModule int
	// ZonePitchUM defaults to 100µm when 0.
	ZonePitchUM float64
}

// DefaultConfig returns the paper's main EML-QCCD configuration for a
// machine able to host n qubits: trap capacity 16, one optical + one
// operation + two storage zones per module, at most 32 ions per module,
// with modules added as 2×2 blocks — "a new 2×2 QCCD grid is added only
// when the total qubit count exceeds a multiple of 32" (§4), i.e. four
// modules per 128 qubits.
func DefaultConfig(n int) Config {
	return Config{
		Modules:          ModulesFor(n),
		TrapCapacity:     16,
		StorageZones:     2,
		OperationZones:   1,
		OpticalZones:     1,
		MaxIonsPerModule: 32,
		ZonePitchUM:      100,
	}
}

// ModulesFor implements the paper's dynamic module-count rule: modules come
// in 2×2 blocks of four, one block per 128 qubits (4 modules × 32 ions).
func ModulesFor(n int) int {
	if n <= 0 {
		return 4
	}
	blocks := (n + 127) / 128
	return 4 * blocks
}

// MaxZones caps the zone count of every device: Modules × zones per module
// for an EML-QCCD build, Rows × Cols for a grid. The paper's default
// configuration at circuit.MaxQubits qubits uses 128 zones.
const MaxZones = 4 * circuit.MaxQubits

// Validate reports whether New can assemble the configuration: at least one
// module, a gate-capable zone in each, at most MaxZones zones, and chains of
// 2 to circuit.MaxQubits ions (a chain never holds more ions than the
// program has qubits). Each factor is bounded before the zone count is
// formed, so the product cannot overflow.
func (cfg Config) Validate() error {
	perModule := []int{cfg.StorageZones, cfg.OperationZones, cfg.OpticalZones}
	switch {
	case cfg.Modules <= 0:
		return fmt.Errorf("arch: need at least one module, got %d", cfg.Modules)
	case slices.Min(perModule) < 0:
		return fmt.Errorf("arch: negative zone count")
	case cfg.OperationZones+cfg.OpticalZones == 0:
		return fmt.Errorf("arch: module has no gate-capable zone")
	case max(cfg.Modules, slices.Max(perModule)) > MaxZones ||
		cfg.Modules*(cfg.StorageZones+cfg.OperationZones+cfg.OpticalZones) > MaxZones:
		return fmt.Errorf("arch: %d modules × %v zones exceeds the %d-zone cap", cfg.Modules, perModule, MaxZones)
	}
	if err := checkCapacity("trap", cfg.TrapCapacity); err != nil {
		return err
	}
	if cfg.OpticalCapacity > 0 {
		return checkCapacity("optical", cfg.OpticalCapacity)
	}
	return nil
}

// checkCapacity bounds one chain capacity to [2, circuit.MaxQubits].
func checkCapacity(what string, capacity int) error {
	if capacity < 2 || capacity > circuit.MaxQubits {
		return fmt.Errorf("arch: %s capacity must be in [2, %d], got %d", what, circuit.MaxQubits, capacity)
	}
	return nil
}

// New builds a Device from a Config. It returns Validate's error when the
// machine cannot be assembled coherently or exceeds a cap.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pitch := cfg.ZonePitchUM
	if pitch <= 0 {
		pitch = 100
	}
	optCap := cfg.OpticalCapacity
	if optCap <= 0 || optCap > cfg.TrapCapacity {
		optCap = cfg.TrapCapacity
	}
	d := &Device{TrapCapacity: cfg.TrapCapacity, ZonePitchUM: pitch}
	for m := 0; m < cfg.Modules; m++ {
		mod := Module{ID: m}
		pos := 0
		add := func(level Level) {
			capacity := cfg.TrapCapacity
			if level == LevelOptical {
				capacity = optCap
			}
			z := Zone{ID: len(d.Zones), Module: m, Level: level, Capacity: capacity, Pos: pos}
			pos++
			d.Zones = append(d.Zones, z)
			mod.Zones = append(mod.Zones, z.ID)
		}
		for i := 0; i < cfg.StorageZones; i++ {
			add(LevelStorage)
		}
		for i := 0; i < cfg.OperationZones; i++ {
			add(LevelOperation)
		}
		for i := 0; i < cfg.OpticalZones; i++ {
			add(LevelOptical)
		}
		mod.MaxIons = cfg.MaxIonsPerModule
		if mod.MaxIons <= 0 {
			mod.MaxIons = len(mod.Zones) * cfg.TrapCapacity
		}
		d.Modules = append(d.Modules, mod)
	}
	d.indexLevels()
	return d, nil
}

// indexLevels fills the per-(module, level) zone lists behind
// ZonesByLevel. New and Grid.Device call it.
func (d *Device) indexLevels() {
	byLevel := make([][]int, len(d.Modules)*numLevels)
	for m := range d.Modules {
		for l := range numLevels {
			byLevel[m*numLevels+l] = d.zonesByLevelSlow(m, Level(l))
		}
	}
	d.byLevel = byLevel
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// NumZones returns the total zone count.
func (d *Device) NumZones() int { return len(d.Zones) }

// Zone returns the zone with the given ID.
func (d *Device) Zone(id int) *Zone { return &d.Zones[id] }

// Capacity returns the total ion capacity of the device respecting the
// per-module cap.
func (d *Device) Capacity() int {
	total := 0
	for _, m := range d.Modules {
		c := 0
		for _, z := range m.Zones {
			c += d.Zones[z].Capacity
		}
		if c > m.MaxIons {
			c = m.MaxIons
		}
		total += c
	}
	return total
}

// ZonesByLevel returns the zone IDs of module m at the given level, in
// segment order. On devices built by New or Grid.Device the slice is the
// device's own precomputed list; callers must not mutate it.
//
//mussti:hotpath
func (d *Device) ZonesByLevel(m int, level Level) []int {
	if d.byLevel != nil && level >= 0 && int(level) < numLevels {
		return d.byLevel[m*numLevels+int(level)]
	}
	return d.zonesByLevelSlow(m, level)
}

// zonesByLevelSlow scans module m's zones for the given level; it fills
// indexLevels' table and serves devices without one.
func (d *Device) zonesByLevelSlow(m int, level Level) []int {
	var out []int
	for _, z := range d.Modules[m].Zones {
		if d.Zones[z].Level == level {
			out = append(out, z)
		}
	}
	return out
}

// OpticalZones returns all optical zone IDs on the device.
func (d *Device) OpticalZones() []int {
	var out []int
	for _, z := range d.Zones {
		if z.Level == LevelOptical {
			out = append(out, z.ID)
		}
	}
	return out
}

// IntraDistanceUM returns the physical shuttle distance between two zones of
// the same module: the Manhattan hop count between their (Pos, Row)
// coordinates times ZonePitchUM. It panics if the zones belong to different
// modules: ions never physically travel between modules on an EML-QCCD
// device (qubit state crosses modules only through fiber entanglement), so
// asking for such a distance is a scheduler bug.
//
//mussti:hotpath
func (d *Device) IntraDistanceUM(a, b int) float64 {
	za, zb := &d.Zones[a], &d.Zones[b]
	if za.Module != zb.Module {
		crossModule(za.Module, zb.Module)
	}
	return float64(absInt(za.Pos-zb.Pos)+absInt(za.Row-zb.Row)) * d.ZonePitchUM
}

// crossModule is IntraDistanceUM's panic, kept out of line: inlined, its
// formatting would make IntraDistanceUM's arguments escape to the heap.
//
//go:noinline
func crossModule(ma, mb int) {
	panic(fmt.Sprintf("arch: intra-module distance across modules %d and %d", ma, mb))
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// LevelsDescending enumerates zone levels from highest to lowest.
func LevelsDescending() []Level {
	return []Level{LevelOptical, LevelOperation, LevelStorage}
}

// String summarises the device for logs and CLI headers, e.g.
// "EML-QCCD: 4 modules × [2×storage(16) 1×operation(16) 1×optical(16)], ≤32 ions/module".
func (d *Device) String() string {
	if len(d.Modules) == 0 {
		return "EML-QCCD: empty device"
	}
	m := d.Modules[0]
	counts := make(map[Level]int)
	caps := make(map[Level]int)
	for _, z := range m.Zones {
		counts[d.Zones[z].Level]++
		caps[d.Zones[z].Level] = d.Zones[z].Capacity
	}
	var parts []string
	for _, l := range []Level{LevelStorage, LevelOperation, LevelOptical} {
		if counts[l] > 0 {
			parts = append(parts, fmt.Sprintf("%d×%s(%d)", counts[l], l, caps[l]))
		}
	}
	return fmt.Sprintf("EML-QCCD: %d modules × [%s], ≤%d ions/module",
		len(d.Modules), strings.Join(parts, " "), m.MaxIons)
}
