package eval

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/core"
)

// TestParallelMatchesSequential is the determinism contract of the runner:
// the rendered tables must be byte-identical to the sequential output at
// any worker count. table2 covers the mixed baseline+MUSS-TI path, lru the
// extension path.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs skipped in -short")
	}
	for _, id := range []string{"table2", "lru"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := e.RunContext(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		par, err := e.RunContext(context.Background(), NewRunner(4))
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if seq != par {
			t.Errorf("%s: parallel output differs from sequential\n--- sequential ---\n%s--- parallel ---\n%s", id, seq, par)
		}
	}
}

// ghzJobs builds n small independent measurement jobs.
func ghzJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Spec: CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: core.NewCompileConfig()}}
	}
	return jobs
}

func TestRunnerPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, r := range map[string]*Runner{"sequential": nil, "parallel": NewRunner(2)} {
		if _, err := r.Run(ctx, ghzJobs(4)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// blockingCompiler is a registry compiler that announces each compile on
// started and then holds it until its context is done, so a test can cancel
// while a job is provably in flight however fast the real compilers get.
type blockingCompiler struct{ started chan struct{} }

func (blockingCompiler) Name() string { return "eval-block-test" }

func (b blockingCompiler) Compile(ctx context.Context, _ *circuit.Circuit, _ arch.Target, _ *core.CompileConfig) (*core.Result, error) {
	b.started <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

// The buffer holds one signal per job of TestRunnerCancelledMidRun, so an
// announcing compile never blocks on a reader that has already cancelled.
var blockCompiler = blockingCompiler{started: make(chan struct{}, cancelledRunJobs)}

const cancelledRunJobs = 4

func init() { core.MustRegisterCompiler(blockCompiler) }

func TestRunnerCancelledMidRun(t *testing.T) {
	// Cancellation must land while the pool is still working; the runner
	// must abort in-flight compiles and skip unstarted jobs instead of
	// draining the whole list. The cancel fires once a compile has started,
	// and every compile blocks until cancelled, so a runner that failed to
	// propagate the cancel would hang rather than finish early.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(2)
	// The jobs are identical; with the cache on they collapse into one
	// compile.
	r.DisableCache()
	jobs := make([]Job, cancelledRunJobs)
	for i := range jobs {
		jobs[i] = Job{Spec: CompileSpec{App: "GHZ_n4", Compiler: blockCompiler.Name()}}
	}
	go func() {
		<-blockCompiler.started
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, jobs)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return: the in-flight compiles never saw the cancel")
	}
	// Drain the start signals of compiles that began before the cancel.
	for len(blockCompiler.started) > 0 {
		<-blockCompiler.started
	}
}

// countingCompiler is a registry compiler that counts its compiles and
// refuses every one.
type countingCompiler struct{ calls *atomic.Int64 }

func (countingCompiler) Name() string { return "eval-count-test" }

func (c countingCompiler) Compile(context.Context, *circuit.Circuit, arch.Target, *core.CompileConfig) (*core.Result, error) {
	c.calls.Add(1)
	return nil, errors.New("eval-count-test compiles nothing")
}

var countCompiler = countingCompiler{calls: new(atomic.Int64)}

func init() { core.MustRegisterCompiler(countCompiler) }

// TestRunJobRejectsInvalidGrid: a grid spec that skipped NewGrid (as the
// dist decoder's literal does) is validated where it becomes a target, so an
// over-cap or malformed grid errors before any compiler sees it.
func TestRunJobRejectsInvalidGrid(t *testing.T) {
	before := countCompiler.calls.Load()
	for _, g := range []*arch.Grid{
		{Rows: 1_000_000, Cols: 1_000_000, Capacity: 16, TrapPitchUM: 100},
		{Rows: 2, Cols: 2, Capacity: circuit.MaxQubits + 1, TrapPitchUM: 100},
		{Rows: 0, Cols: 4, Capacity: 16, TrapPitchUM: 100},
		{Rows: 2, Cols: 2, Capacity: 16, TrapPitchUM: -100},
	} {
		spec := CompileSpec{App: "GHZ_n4", Compiler: countCompiler.Name(), Grid: g}
		_, err := NewRunner(1).RunJob(context.Background(), Job{Spec: spec})
		if err == nil || !strings.Contains(err.Error(), "grid") {
			t.Errorf("grid %dx%d capacity %d: err = %v, want a grid validation error", g.Rows, g.Cols, g.Capacity, err)
		}
	}
	if n := countCompiler.calls.Load() - before; n != 0 {
		t.Errorf("%d compiles ran for invalid grids", n)
	}
}

func TestRunnerFirstErrorInJobOrder(t *testing.T) {
	// Two failing jobs: the runner must report the lowest-indexed one —
	// the same error a sequential loop surfaces first — at any worker
	// count, because workers claim jobs in index order and a claimed job
	// always runs to completion.
	jobs := []Job{
		{Spec: CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: core.NewCompileConfig()}},
		{Spec: CompileSpec{App: "Bogus_n1", Compiler: "mussti", Config: &core.CompileConfig{}}},
		{Spec: CompileSpec{App: "AlsoBogus_n1", Compiler: "mussti", Config: &core.CompileConfig{}}},
	}
	_, seqErr := (*Runner)(nil).Run(context.Background(), jobs)
	if seqErr == nil || !strings.Contains(seqErr.Error(), `"bogus"`) {
		t.Fatalf("sequential error = %v", seqErr)
	}
	for _, workers := range []int{1, 3} {
		for i := 0; i < 5; i++ { // worker scheduling varies; try a few times
			_, err := NewRunner(workers).Run(context.Background(), jobs)
			if err == nil || err.Error() != seqErr.Error() {
				t.Fatalf("workers=%d error = %v, want %v", workers, err, seqErr)
			}
		}
	}
}

func TestRunnerEmptyJob(t *testing.T) {
	if _, err := NewRunner(1).Run(context.Background(), []Job{{}}); err == nil {
		t.Error("empty job accepted")
	}
}

func TestRunnerWorkersDefault(t *testing.T) {
	if w := NewRunner(0).Workers(); w < 1 {
		t.Errorf("Workers() = %d", w)
	}
	if w := (*Runner)(nil).Workers(); w != 1 {
		t.Errorf("nil runner Workers() = %d, want 1", w)
	}
}

func TestTimingExperimentsAreSerial(t *testing.T) {
	// fig10/fig11 render wall-clock CompileTime; their jobs must never
	// contend with each other in the pool. Everything else parallelises.
	for _, e := range AllExperiments() {
		p, err := e.Plan()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		wantSerial := e.ID == "fig10" || e.ID == "fig11"
		if p.Serial != wantSerial {
			t.Errorf("%s: Serial = %v, want %v", e.ID, p.Serial, wantSerial)
		}
	}
}

func TestResultsCursorOverrun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overrunning the results cursor did not panic")
		}
	}()
	(&Results{}).Next()
}
