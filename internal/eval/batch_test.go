package eval

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestExperimentsByteIdenticalAcrossExecutionModes is the harness-level
// determinism golden: the rendered table2 and fig6 output must be
// byte-identical whether jobs run sequentially, through the concurrent
// runner with batching (the default), with batching disabled, or with the
// measurement cache off. The execution strategy is a pure performance knob.
func TestExperimentsByteIdenticalAcrossExecutionModes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mode experiment sweep")
	}
	ctx := context.Background()
	modes := []struct {
		name string
		mk   func() *Runner
	}{
		{"sequential", func() *Runner { return nil }},
		{"batched", func() *Runner { return NewRunner(8) }},
		{"unbatched", func() *Runner { r := NewRunner(8); r.DisableBatching(); return r }},
		{"uncached", func() *Runner { r := NewRunner(4); r.DisableCache(); return r }},
	}
	for _, id := range []string{"table2", "fig6"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for _, mode := range modes {
			got, err := e.RunContext(ctx, mode.mk())
			if err != nil {
				t.Fatalf("%s (%s): %v", id, mode.name, err)
			}
			if mode.name == "sequential" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s (%s): output differs from sequential run", id, mode.name)
			}
		}
	}
}

// TestBatchRunnerCancelLeavesNoGoroutines extends the no-leak cancellation
// contract to the batch path: a run cancelled from inside a batched compile
// must return promptly and retire every worker and candidate goroutine.
func TestBatchRunnerCancelLeavesNoGoroutines(t *testing.T) {
	jobs := make([]Job, 0, 64)
	for i := 0; i < 64; i++ {
		jobs = append(jobs, Job{Spec: CompileSpec{App: "GHZ_n64", Compiler: "mussti"}})
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(4)
	r.DisableCache() // identical jobs would otherwise collapse and finish early
	// Cancel from inside the first compile that schedules a gate. With the
	// cache off, batching still groups all 64 identical jobs into one
	// CompileBatch unit, so this aborts the unit mid-flight.
	jobs[0] = jobs[0].WithObserver(cancelOnGate{cancel: cancel, after: 1})
	start := time.Now()
	_, err := r.Run(ctx, jobs)
	if err == nil {
		t.Fatal("cancelled batched run returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled batched run took %s, want a prompt return", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines did not retire after batched cancel: %d running, baseline %d", n, baseline)
	}
}
