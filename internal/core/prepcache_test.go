package core

import (
	"context"

	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
)

// TestReversePrepCacheReuse: the second acquire for a circuit must hand back
// the pooled prep, and a compile running on a recycled prep must produce the
// same schedule as the first — reuse is invisible in the output.
func TestReversePrepCacheReuse(t *testing.T) {
	c := bench.MustByName("QAOA_n64")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))

	// sync.Pool may drop any Put (under -race it drops a quarter of them on
	// purpose), so one miss proves nothing; twenty in a row would.
	reused := false
	for try := 0; try < 20 && !reused; try++ {
		p1, pool := acquireReversePrep(c)
		pool.Put(p1)
		p2, pool2 := acquireReversePrep(c)
		if pool2 != pool {
			t.Fatalf("acquire returned a different pool for the same circuit")
		}
		reused = p2 == p1
		pool2.Put(p2)
	}
	if !reused {
		t.Errorf("second acquire always built a fresh prep; want the pooled one back")
	}

	first, err := registryCompile(context.Background(), c, d, *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	second, err := registryCompile(context.Background(), c, d, *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	if first.Metrics != second.Metrics {
		t.Errorf("metrics changed across cached-prep compiles: %+v vs %+v", first.Metrics, second.Metrics)
	}
	if len(first.InitialMapping) != len(second.InitialMapping) {
		t.Fatalf("initial mapping length changed: %d vs %d", len(first.InitialMapping), len(second.InitialMapping))
	}
	for q := range first.InitialMapping {
		if first.InitialMapping[q] != second.InitialMapping[q] {
			t.Fatalf("initial mapping for qubit %d changed: %d vs %d", q, first.InitialMapping[q], second.InitialMapping[q])
		}
	}
}
