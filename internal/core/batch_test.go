package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
)

// stripTime returns a copy of res with the wall-clock CompileTime zeroed —
// the one Result field that legitimately differs between two identical
// compiles.
func stripTime(res *Result) Result {
	c := *res
	c.CompileTime = 0
	return c
}

// TestCompileBatchMatchesIndividual: every batch member must be
// byte-identical to a standalone CompileContext of the same variant,
// including traced and grid-targeted variants.
func TestCompileBatchMatchesIndividual(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	g, err := arch.NewGrid(2, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	variants := []BatchVariant{
		{Target: d, Config: nil}, // nil config = paper defaults
		{Target: d, Config: NewCompileConfig(WithLookAhead(4))},
		{Target: d, Config: NewCompileConfig(WithTrace())},
		{Target: d, Config: NewCompileConfig(WithMapping(MappingTrivial))},
		{Target: d, Config: NewCompileConfig(WithSwapInsertion(false))},
		{Target: g, Config: nil},
	}
	want := make([]Result, len(variants))
	for i, v := range variants {
		opts := DefaultOptions()
		if v.Config != nil {
			opts = *v.Config
		}
		dev, err := deviceFor(v.Target)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CompileContext(context.Background(), c, dev, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		want[i] = stripTime(res)
	}
	results, err := CompileBatch(context.Background(), c, variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(variants) {
		t.Fatalf("got %d results, want %d", len(results), len(variants))
	}
	for i, res := range results {
		if !reflect.DeepEqual(stripTime(res), want[i]) {
			t.Errorf("variant %d: batch Result differs from standalone compile", i)
		}
	}
}

// TestCompileBatchValidation: bad variants fail fast with the lowest index
// named, before any scheduling work.
func TestCompileBatchValidation(t *testing.T) {
	c := bench.MustByName("SQRT_n299")
	// DefaultConfig(8) still allocates a full 4-module block (capacity 128),
	// so a 299-qubit circuit is what actually overflows it.
	small := arch.MustNew(arch.DefaultConfig(8))
	big := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	_, err := CompileBatch(context.Background(), c, []BatchVariant{
		{Target: big}, {Target: small}, {Target: small},
	})
	if err == nil || !strings.Contains(err.Error(), "batch variant 1") {
		t.Errorf("err = %v, want capacity failure naming variant 1", err)
	}
	if res, err := CompileBatch(context.Background(), c, nil); err != nil || res != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", res, err)
	}
}

// TestReversePrepConcurrent is the -race stress test for the prep-cache
// path: 8 goroutines compile the same circuit concurrently, all drawing
// reverse preps from the shared pool. Every compile must match the
// sequential reference exactly.
func TestReversePrepConcurrent(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	ref, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := stripTime(ref)
	var wg sync.WaitGroup
	errCh := make(chan error, 8*3)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				res, err := CompileContext(context.Background(), c, d, DefaultOptions())
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(stripTime(res), want) {
					errCh <- fmt.Errorf("goroutine %d iter %d: Result diverged", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// waitForGoroutines polls until the goroutine count retires to the baseline
// (with headroom for runtime helpers), failing after a deadline — the
// no-leak check for the cancellation paths.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not retire: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestCompileBatchMidCompileCancel: cancelling mid-batch must abort the
// in-flight variant promptly, skip the rest and leak no goroutine.
func TestCompileBatchMidCompileCancel(t *testing.T) {
	c := bench.MustByName("SQRT_n117")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	variants := make([]BatchVariant, 4)
	for i := range variants {
		cfg := DefaultOptions()
		if i == 0 {
			cfg.Observer = &cancelAfterGates{n: 100, cancel: cancel}
		}
		variants[i] = BatchVariant{Target: d, Config: &cfg}
	}
	start := time.Now()
	_, err := CompileBatch(ctx, c, variants)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (batch was not interrupted)", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled batch took %s, want a prompt return", elapsed)
	}
	waitForGoroutines(t, baseline)
}

// TestCompileBatchPreCancelled: an already-dead context aborts the batch
// before any variant completes.
func TestCompileBatchPreCancelled(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileBatch(ctx, c, []BatchVariant{{Target: d}, {Target: d}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
