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
	"strings"
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
	// Pos is the zone's position along its module's linear segment, used
	// for shuttle distances (segment order: storage…, operation, optical).
	Pos int
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

// Device is an entanglement-module-linked QCCD machine.
type Device struct {
	Zones   []Zone
	Modules []Module
	// TrapCapacity is the uniform per-zone capacity.
	TrapCapacity int
	// ZonePitchUM is the physical distance between adjacent zones of a
	// module in micrometres; shuttle Move time is distance / speed.
	ZonePitchUM float64
	// DistUM, when non-nil, overrides the linear-segment distance between
	// two same-module zones (used by the grid adapter, whose traps live on
	// a lattice rather than a segment). IntraDistanceUM reads distances
	// from the matrix PrecomputeDistances froze, not from this closure —
	// set DistUM before building the matrix (as Grid.Device does), or call
	// PrecomputeDistances again after changing it; mutating only DistUM on
	// an already-built device would silently keep the old geometry.
	DistUM func(a, b int) float64
	// DistKey identifies the DistUM geometry in CacheKey: a function value
	// cannot be rendered, so builders that set DistUM should set DistKey to
	// a deterministic description of the geometry (the grid adapter uses
	// the source grid's CacheKey). When left empty, CacheKey digests the
	// full intra-module distance matrix instead — correct, but O(zones²)
	// calls into DistUM per CacheKey call.
	DistKey string

	// dist is the flattened NZ×NZ intra-module zone-distance matrix filled
	// by PrecomputeDistances (negative entries mark cross-module pairs).
	// IntraDistanceUM answers from it in O(1); when nil — a hand-assembled
	// Device literal — it falls back to computing per call.
	dist []float64
	// byLevel[m*numLevels+l] lists module m's zones at level l in segment
	// order, filled by PrecomputeDistances. ZonesByLevel answers from it
	// without allocating; when nil it falls back to a per-call scan.
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

// New builds a Device from a Config. It returns an error when the machine
// cannot be assembled coherently (no gate-capable zone, zero capacity...).
func New(cfg Config) (*Device, error) {
	if cfg.Modules <= 0 {
		return nil, fmt.Errorf("arch: need at least one module, got %d", cfg.Modules)
	}
	if cfg.TrapCapacity < 2 {
		return nil, fmt.Errorf("arch: trap capacity must be ≥2 for two-qubit gates, got %d", cfg.TrapCapacity)
	}
	if cfg.OperationZones+cfg.OpticalZones <= 0 {
		return nil, fmt.Errorf("arch: module has no gate-capable zone")
	}
	if cfg.StorageZones < 0 || cfg.OperationZones < 0 || cfg.OpticalZones < 0 {
		return nil, fmt.Errorf("arch: negative zone count")
	}
	pitch := cfg.ZonePitchUM
	if pitch <= 0 {
		pitch = 100
	}
	optCap := cfg.OpticalCapacity
	if optCap <= 0 || optCap > cfg.TrapCapacity {
		optCap = cfg.TrapCapacity
	}
	if optCap < 2 {
		return nil, fmt.Errorf("arch: optical capacity must be ≥2, got %d", optCap)
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
	d.PrecomputeDistances()
	return d, nil
}

// PrecomputeDistances builds the intra-module zone-distance matrix behind
// IntraDistanceUM and the per-(module, level) zone lists behind
// ZonesByLevel, turning every later query into an array read. New and
// Grid.Device call it automatically; builders that assemble a Device
// literally (or mutate zones or geometry afterwards) may call it themselves
// — or not, in which case both are computed per call as before.
func (d *Device) PrecomputeDistances() {
	nz := len(d.Zones)
	dist := make([]float64, nz*nz)
	for i := range dist {
		dist[i] = -1 // cross-module sentinel; overwritten for legal pairs
	}
	for _, m := range d.Modules {
		for _, a := range m.Zones {
			for _, b := range m.Zones {
				dist[a*nz+b] = d.intraDistanceSlow(a, b)
			}
		}
	}
	d.dist = dist
	byLevel := make([][]int, len(d.Modules)*numLevels)
	for m := range d.Modules {
		for l := range numLevels {
			byLevel[m*numLevels+l] = d.zonesByLevelSlow(m, Level(l))
		}
	}
	d.byLevel = byLevel
}

// intraDistanceSlow computes one intra-module distance from first
// principles: the builder-supplied DistUM geometry when set, the linear
// zone-segment pitch otherwise. PrecomputeDistances evaluates it once per
// same-module zone pair; IntraDistanceUM uses it only on matrix-less
// devices.
func (d *Device) intraDistanceSlow(a, b int) float64 {
	if d.DistUM != nil {
		return d.DistUM(a, b)
	}
	diff := d.Zones[a].Pos - d.Zones[b].Pos
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) * d.ZonePitchUM
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
// PrecomputeDistances' table and serves devices without one.
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
// the same module — an O(1) read of the precomputed distance matrix on
// devices built by New or Grid.Device. It panics if the zones belong to
// different modules: ions never physically travel between modules on an
// EML-QCCD device (qubit state crosses modules only through fiber
// entanglement), so asking for such a distance is a scheduler bug.
//
// The body is just the matrix probe; everything else — the cross-module
// panic and the matrix-less fallback — lives in intraDistanceFallback,
// which re-derives which of the two it is from the same state. (The probe
// plus one call still costs 87 against the inliner's budget of 80, so the
// function carries no //mussti:inline claim; the split keeps the cold
// panic formatting out of the hot function body.)
//
//mussti:hotpath
func (d *Device) IntraDistanceUM(a, b int) float64 {
	if d.dist != nil {
		if v := d.dist[a*len(d.Zones)+b]; v >= 0 {
			return v
		}
	}
	return d.intraDistanceFallback(a, b)
}

// intraDistanceFallback is IntraDistanceUM's out-of-line tail: a negative
// matrix entry means a cross-module query (panic), no matrix at all means a
// first-principles computation on an unprepared device.
func (d *Device) intraDistanceFallback(a, b int) float64 {
	if d.dist == nil && d.Zones[a].Module == d.Zones[b].Module {
		return d.intraDistanceSlow(a, b)
	}
	panic(fmt.Sprintf("arch: intra-module distance across modules %d and %d",
		d.Zones[a].Module, d.Zones[b].Module))
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
