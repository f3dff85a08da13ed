package arch

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mussti/internal/circuit"
)

func TestLevelProperties(t *testing.T) {
	if LevelStorage.GateCapable() {
		t.Error("storage must not be gate capable")
	}
	if !LevelOperation.GateCapable() || !LevelOptical.GateCapable() {
		t.Error("operation/optical must be gate capable")
	}
	names := map[Level]string{LevelStorage: "storage", LevelOperation: "operation", LevelOptical: "optical"}
	for l, want := range names {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, l.String(), want)
		}
	}
}

func TestDefaultConfigLayout(t *testing.T) {
	d := MustNew(DefaultConfig(128))
	if len(d.Modules) != 4 {
		t.Fatalf("modules = %d, want 4 (one 2x2 block per 128 qubits)", len(d.Modules))
	}
	for _, m := range d.Modules {
		if len(m.Zones) != 4 {
			t.Fatalf("module %d has %d zones, want 4", m.ID, len(m.Zones))
		}
		levels := make(map[Level]int)
		for _, z := range m.Zones {
			levels[d.Zones[z].Level]++
		}
		if levels[LevelStorage] != 2 || levels[LevelOperation] != 1 || levels[LevelOptical] != 1 {
			t.Errorf("module %d levels = %v", m.ID, levels)
		}
		if m.MaxIons != 32 {
			t.Errorf("module %d MaxIons = %d, want 32", m.ID, m.MaxIons)
		}
	}
}

func TestModulesFor(t *testing.T) {
	cases := map[int]int{0: 4, 1: 4, 32: 4, 128: 4, 129: 8, 256: 8, 257: 12, 299: 12}
	for n, want := range cases {
		if got := ModulesFor(n); got != want {
			t.Errorf("ModulesFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Modules: 0, TrapCapacity: 16, OperationZones: 1},
		{Modules: 1, TrapCapacity: 1, OperationZones: 1},
		{Modules: 1, TrapCapacity: 16}, // no gate-capable zone
		{Modules: 1, TrapCapacity: 16, OperationZones: 1, StorageZones: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestNewCaps checks every cap Validate puts on a build: the largest
// configuration inside each is accepted, one step over is refused, and
// factors large enough to overflow the zone-count product are refused
// before it is formed.
func TestNewCaps(t *testing.T) {
	atCap := DefaultConfig(0)
	atCap.Modules = MaxZones / 4 // four zones per module in the default layout
	atCap.TrapCapacity = circuit.MaxQubits
	atCap.OpticalCapacity = circuit.MaxQubits
	d, err := New(atCap)
	if err != nil {
		t.Fatalf("config at every cap refused: %v", err)
	}
	if d.NumZones() != MaxZones {
		t.Errorf("zones = %d, want %d", d.NumZones(), MaxZones)
	}
	over := map[string]func(*Config){
		"modules":          func(c *Config) { c.Modules++ },
		"storage zones":    func(c *Config) { c.Modules, c.StorageZones = 1, MaxZones },
		"trap capacity":    func(c *Config) { c.TrapCapacity++ },
		"optical capacity": func(c *Config) { c.OpticalCapacity++ },
		"overflow":         func(c *Config) { c.Modules, c.StorageZones = 1<<32, 1<<32 },
		"huge factor":      func(c *Config) { c.Modules = math.MaxInt },
	}
	for name, mutate := range over {
		cfg := atCap
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s over its cap accepted: %+v", name, cfg)
		}
	}
}

func TestZonesByLevelAndOptical(t *testing.T) {
	d := MustNew(DefaultConfig(128))
	if got := len(d.OpticalZones()); got != 4 {
		t.Errorf("optical zones = %d, want 4", got)
	}
	for m := range d.Modules {
		if got := len(d.ZonesByLevel(m, LevelStorage)); got != 2 {
			t.Errorf("module %d storage zones = %d, want 2", m, got)
		}
	}
}

// TestZonesByLevelTableMatchesScan checks the precomputed per-(module,
// level) lists against the scan a device literal falls back to, and that
// the precomputed answer allocates nothing.
func TestZonesByLevelTableMatchesScan(t *testing.T) {
	d := MustNew(Config{Modules: 3, TrapCapacity: 8, StorageZones: 2, OperationZones: 1, OpticalZones: 2})
	literal := &Device{Zones: d.Zones, Modules: d.Modules, TrapCapacity: d.TrapCapacity, ZonePitchUM: d.ZonePitchUM}
	for m := range d.Modules {
		for _, l := range LevelsDescending() {
			got, want := d.ZonesByLevel(m, l), literal.ZonesByLevel(m, l)
			if !slices.Equal(got, want) || len(want) == 0 {
				t.Errorf("module %d %v: table %v, scan %v", m, l, got, want)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { d.ZonesByLevel(1, LevelOptical) }); a != 0 {
		t.Errorf("ZonesByLevel allocates %v times per call", a)
	}
}

func TestCapacityRespectsMaxIons(t *testing.T) {
	d := MustNew(DefaultConfig(128))
	// 4 zones x 16 = 64 slots but MaxIons 32 per module.
	if got := d.Capacity(); got != 128 {
		t.Errorf("capacity = %d, want 128", got)
	}
	cfg := DefaultConfig(128)
	cfg.MaxIonsPerModule = 1000
	d = MustNew(cfg)
	if got := d.Capacity(); got != 256 {
		t.Errorf("uncapped capacity = %d, want 256", got)
	}
}

func TestIntraDistance(t *testing.T) {
	d := MustNew(DefaultConfig(32))
	m0 := d.Modules[0]
	first, last := m0.Zones[0], m0.Zones[len(m0.Zones)-1]
	if got := d.IntraDistanceUM(first, last); got != 300 {
		t.Errorf("distance across module = %v, want 300 (3 hops x 100um)", got)
	}
	if got := d.IntraDistanceUM(first, first); got != 0 {
		t.Errorf("self distance = %v, want 0", got)
	}
	if a := testing.AllocsPerRun(100, func() { d.IntraDistanceUM(first, last) }); a != 0 {
		t.Errorf("IntraDistanceUM allocates %v times per call", a)
	}
}

// TestGridDeviceDistanceMatchesGrid checks that a grid-adapted device's
// coordinate distance is the grid's hop count times the trap pitch, bit for
// bit, for every trap pair of grids of both orientations.
func TestGridDeviceDistanceMatchesGrid(t *testing.T) {
	for _, g := range []*Grid{MustNewGrid(2, 3, 8), MustNewGrid(3, 2, 8), MustNewGrid(5, 5, 4)} {
		d := g.Device()
		for a := range g.NumTraps() {
			for b := range g.NumTraps() {
				got, want := d.IntraDistanceUM(a, b), float64(g.Distance(a, b))*g.TrapPitchUM
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v: device distance (%d,%d) = %v, grid %v", g, a, b, got, want)
				}
			}
		}
	}
}

func TestIntraDistancePanicsAcrossModules(t *testing.T) {
	d := MustNew(DefaultConfig(32))
	defer func() {
		if recover() == nil {
			t.Error("cross-module distance did not panic")
		}
	}()
	d.IntraDistanceUM(d.Modules[0].Zones[0], d.Modules[1].Zones[0])
}

func TestOpticalCapacityKnob(t *testing.T) {
	cfg := DefaultConfig(32)
	cfg.OpticalCapacity = 4
	d := MustNew(cfg)
	for _, z := range d.Zones {
		want := 16
		if z.Level == LevelOptical {
			want = 4
		}
		if z.Capacity != want {
			t.Errorf("zone %d (%v) capacity = %d, want %d", z.ID, z.Level, z.Capacity, want)
		}
	}
	// Larger than trap capacity clamps down.
	cfg.OpticalCapacity = 99
	d = MustNew(cfg)
	for _, z := range d.OpticalZones() {
		if d.Zones[z].Capacity != 16 {
			t.Errorf("optical capacity = %d, want clamped 16", d.Zones[z].Capacity)
		}
	}
}

func TestMultipleOpticalZones(t *testing.T) {
	cfg := DefaultConfig(256)
	cfg.OpticalZones = 2
	d := MustNew(cfg)
	for m := range d.Modules {
		if got := len(d.ZonesByLevel(m, LevelOptical)); got != 2 {
			t.Errorf("module %d optical zones = %d, want 2", m, got)
		}
	}
}

func TestLevelsDescending(t *testing.T) {
	ls := LevelsDescending()
	if len(ls) != 3 || ls[0] != LevelOptical || ls[2] != LevelStorage {
		t.Errorf("LevelsDescending = %v", ls)
	}
}

func TestPropertyZoneIDsDense(t *testing.T) {
	f := func(modules, storage uint8) bool {
		cfg := Config{
			Modules:        int(modules%8) + 1,
			TrapCapacity:   8,
			StorageZones:   int(storage % 4),
			OperationZones: 1,
			OpticalZones:   1,
		}
		d, err := New(cfg)
		if err != nil {
			return false
		}
		for i, z := range d.Zones {
			if z.ID != i {
				return false
			}
		}
		// Every zone belongs to exactly one module's list.
		seen := make(map[int]bool)
		for _, m := range d.Modules {
			for _, z := range m.Zones {
				if seen[z] {
					return false
				}
				seen[z] = true
			}
		}
		return len(seen) == len(d.Zones)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
