package arch

import "testing"

func TestTargetQubitCapacity(t *testing.T) {
	var targets = []struct {
		tgt  Target
		want int
	}{
		{MustNew(DefaultConfig(128)), MustNew(DefaultConfig(128)).Capacity()},
		{MustNewGrid(2, 3, 8), 48},
	}
	for _, c := range targets {
		if got := c.tgt.QubitCapacity(); got != c.want {
			t.Errorf("%T.QubitCapacity() = %d, want %d", c.tgt, got, c.want)
		}
	}
}

func TestTargetCacheKeys(t *testing.T) {
	// Equal machines yield equal keys; different machines must not collide.
	if a, b := MustNewGrid(2, 3, 8).CacheKey(), MustNewGrid(2, 3, 8).CacheKey(); a != b {
		t.Errorf("equal grids, different keys: %q vs %q", a, b)
	}
	keys := map[string]string{}
	for name, tgt := range map[string]Target{
		"grid-2x3-8":  MustNewGrid(2, 3, 8),
		"grid-3x2-8":  MustNewGrid(3, 2, 8),
		"grid-2x3-12": MustNewGrid(2, 3, 12),
		"eml-128":     MustNew(DefaultConfig(128)),
		"eml-256":     MustNew(DefaultConfig(256)),
	} {
		k := tgt.CacheKey()
		if prev, dup := keys[k]; dup {
			t.Errorf("%s and %s collide on key %q", prev, name, k)
		}
		keys[k] = name
	}
	// The grid's Device adapter keys its zones' coordinates, so grids with
	// the same six traps but different hop counts (2x3 vs 3x2) differ.
	if a, b := MustNewGrid(2, 3, 8).Device().CacheKey(), MustNewGrid(3, 2, 8).Device().CacheKey(); a == b {
		t.Errorf("devices with different grid geometry share key %q", a)
	}
}

// TestDeviceCacheKeyPinned pins an EML-QCCD device key byte for byte: the
// service and the disk cache persist keys built from it.
func TestDeviceCacheKeyPinned(t *testing.T) {
	cfg := Config{Modules: 2, TrapCapacity: 8, StorageZones: 1, OperationZones: 1, OpticalZones: 1, OpticalCapacity: 4, MaxIonsPerModule: 12}
	want := "eml{cap=8 pitch=100 m0[max=12 0:storage/8@0 1:operation/8@1 2:optical/4@2] m1[max=12 3:storage/8@0 4:operation/8@1 5:optical/4@2]}"
	if got := MustNew(cfg).CacheKey(); got != want {
		t.Errorf("key = %q, want %q", got, want)
	}
}

func TestConfigCacheKeyDistinguishes(t *testing.T) {
	a, b := DefaultConfig(128), DefaultConfig(128)
	if a.CacheKey() != b.CacheKey() {
		t.Error("equal configs, different keys")
	}
	b.OpticalCapacity = 4
	if a.CacheKey() == b.CacheKey() {
		t.Error("different configs share a key")
	}
}
