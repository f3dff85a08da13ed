package eval

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mussti/internal/arch"
	"mussti/internal/core"
)

// TestMemoExactlyOnce: identical measurement points run through one Runner
// compile exactly once, however many jobs request them.
func TestMemoExactlyOnce(t *testing.T) {
	same := func() Job {
		return Job{Spec: CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: core.NewCompileConfig()}}
	}
	other := Job{Spec: CompileSpec{App: "BV_n32", Compiler: "mussti", Config: core.NewCompileConfig()}}
	r := NewRunner(4)
	ms, err := r.Run(context.Background(), []Job{same(), same(), other, same()})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := r.CacheStats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2 (one compile per distinct point)", misses)
	}
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
	if ms[0] != ms[1] || ms[0] != ms[3] {
		t.Errorf("cached measurements differ from compiled one")
	}
	if ms[2] == ms[0] {
		t.Errorf("distinct point served the wrong cached measurement")
	}
}

// TestMemoSharedAcrossRuns: two Run calls on the same Runner — the shape of
// two experiments in the CLI's all mode — share the cache, so the second
// run's overlapping points are all hits.
func TestMemoSharedAcrossRuns(t *testing.T) {
	jobs := func() []Job {
		return []Job{
			{Spec: CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: core.NewCompileConfig()}},
			{Spec: CompileSpec{App: "GHZ_n32", Compiler: "murali", Grid: arch.MustNewGrid(2, 2, 12)}},
		}
	}
	r := NewRunner(2)
	first, err := r.Run(context.Background(), jobs())
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(context.Background(), jobs())
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := r.CacheStats()
	if misses != 2 || hits != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", hits, misses)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("job %d: cached measurement differs from compiled one", i)
		}
	}
}

// TestMemoSingleflight: concurrent requests for one in-flight key coalesce
// onto a single computation instead of compiling in parallel.
func TestMemoSingleflight(t *testing.T) {
	mo := NewMemo()
	var calls int
	var mu sync.Mutex
	const waiters = 8
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := mo.Do(context.Background(), "k", func() (Measurement, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release // hold the key in-flight until all goroutines queued
				return Measurement{App: "x"}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// Give every goroutine time to reach Do, then let the leader finish.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	if hits, misses := mo.Stats(); hits != waiters-1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", hits, misses, waiters-1)
	}
}

// TestMemoCancelledLeaderRetries: a leader cancelled mid-compile must not
// poison the key — the next caller with a live context computes it.
func TestMemoCancelledLeaderRetries(t *testing.T) {
	mo := NewMemo()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := mo.Do(cancelled, "k", func() (Measurement, error) {
		return Measurement{}, cancelled.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	m, err := mo.Do(context.Background(), "k", func() (Measurement, error) {
		return Measurement{App: "fresh"}, nil
	})
	if err != nil || m.App != "fresh" {
		t.Fatalf("retry after cancelled leader: m=%+v err=%v", m, err)
	}
	if hits, misses := mo.Stats(); hits != 0 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 0/1", hits, misses)
	}
}

// TestMemoRealErrorsAreCached: deterministic failures (bad app names) are
// served from cache like results, not recompiled per experiment.
func TestMemoRealErrorsAreCached(t *testing.T) {
	r := NewRunner(1)
	bad := func() []Job { return []Job{{Spec: CompileSpec{App: "Bogus_n1", Compiler: "mussti"}}} }
	if _, err := r.Run(context.Background(), bad()); err == nil {
		t.Fatal("bogus app accepted")
	}
	if _, err := r.Run(context.Background(), bad()); err == nil {
		t.Fatal("bogus app accepted on second run")
	}
	if hits, misses := r.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

// TestCacheKeysDistinguishConfigs: nearby-but-different specs must never
// collide on one cache key.
func TestCacheKeysDistinguishConfigs(t *testing.T) {
	optsK4 := *core.NewCompileConfig()
	optsK4.LookAhead = 4
	specs := []Job{
		{Spec: CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: core.NewCompileConfig()}},
		{Spec: CompileSpec{App: "GHZ_n64", Compiler: "mussti", Config: core.NewCompileConfig()}},
		{Spec: CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: &optsK4}},
		{Spec: CompileSpec{App: "GHZ_n32", Compiler: "mussti", Grid: arch.MustNewGrid(2, 2, 12), Config: core.NewCompileConfig()}},
		{Spec: CompileSpec{App: "GHZ_n32", Compiler: "mussti", Grid: arch.MustNewGrid(2, 3, 12), Config: core.NewCompileConfig()}},
		{Spec: CompileSpec{App: "GHZ_n32", Compiler: "mussti", Grid: arch.MustNewGrid(2, 2, 8), Config: core.NewCompileConfig()}},
		{Spec: CompileSpec{App: "GHZ_n32", Compiler: "murali", Grid: arch.MustNewGrid(2, 2, 12)}},
		{Spec: CompileSpec{App: "GHZ_n32", Compiler: "dai", Grid: arch.MustNewGrid(2, 2, 12)}},
		{Spec: CompileSpec{App: "GHZ_n32", Compiler: "murali", Grid: arch.MustNewGrid(2, 2, 8)}},
	}
	seen := make(map[string]int)
	for i, j := range specs {
		key, ok := j.Spec.CacheKey()
		if !ok {
			t.Fatalf("spec %d not cacheable", i)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("specs %d and %d collide on key %q", prev, i, key)
		}
		seen[key] = i
	}
	// An identical respec must reproduce the key.
	a, _ := CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: core.NewCompileConfig()}.CacheKey()
	b, _ := CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: core.NewCompileConfig()}.CacheKey()
	if a != b {
		t.Errorf("identical specs produced different keys:\n%s\n%s", a, b)
	}
}

// TestTraceJobsBypassCache: trace-recording runs are never cached (their
// point of existence is the per-run trace the Measurement drops), while an
// Observer never affects cacheability (observation changes no measurement).
func TestTraceJobsBypassCache(t *testing.T) {
	traced := *core.NewCompileConfig()
	traced.Trace = true
	if _, ok := (CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: &traced}).CacheKey(); ok {
		t.Error("trace-recording mussti job was cacheable")
	}
	observed := *core.NewCompileConfig()
	observed.Observer = &nopObsForTest{}
	plainKey, ok1 := CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: core.NewCompileConfig()}.CacheKey()
	obsKey, ok2 := CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: &observed}.CacheKey()
	if !ok1 || !ok2 || plainKey != obsKey {
		t.Errorf("observer changed cacheability or key: %v %v\n%s\n%s", ok1, ok2, plainKey, obsKey)
	}
}

type nopObsForTest struct{}

func (nopObsForTest) GateScheduled(done, total int) {}
func (nopObsForTest) Shuttle(q, from, to int)       {}
func (nopObsForTest) Eviction(victim, from, to int) {}
func (nopObsForTest) SwapInserted(a, b int)         {}

// TestCacheOutputByteIdentical is the rendering contract of the cache:
// table2 and the fig6 small scale share measurement points, and running
// them cached, uncached, or sequentially must produce the same bytes while
// the cached run performs strictly fewer compilations.
func TestCacheOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs skipped in -short")
	}
	ids := []string{"table2", "fig6small"}
	render := func(r *Runner) map[string]string {
		out := make(map[string]string)
		for _, id := range ids {
			var text string
			var err error
			if id == "fig6small" {
				p, perr := fig6Plan("small", nil)
				if perr != nil {
					t.Fatal(perr)
				}
				text, _, err = p.ExecuteCollect(context.Background(), r)
			} else {
				e, eerr := ByID(id)
				if eerr != nil {
					t.Fatal(eerr)
				}
				text, err = e.RunContext(context.Background(), r)
			}
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = text
		}
		return out
	}

	// Total jobs the two experiments enqueue, to assert "strictly fewer
	// compilations than points measured".
	totalJobs := 0
	t2, err := table2Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	f6, err := fig6Plan("small", nil)
	if err != nil {
		t.Fatal(err)
	}
	totalJobs = len(t2.Jobs) + len(f6.Jobs)

	cached := NewRunner(4)
	withCache := render(cached)
	hits, misses := cached.CacheStats()
	if hits == 0 {
		t.Errorf("table2+fig6(small) share points but the cache recorded no hits")
	}
	if int(misses) >= totalJobs {
		t.Errorf("cache performed no dedup: %d compilations for %d points", misses, totalJobs)
	}
	if int(hits+misses) != totalJobs {
		t.Errorf("hits+misses = %d, want %d (every point served once)", hits+misses, totalJobs)
	}

	uncached := NewRunner(4)
	uncached.DisableCache()
	withoutCache := render(uncached)

	for _, id := range ids {
		if withCache[id] != withoutCache[id] {
			t.Errorf("%s: cached output differs from uncached\n--- cached ---\n%s--- uncached ---\n%s",
				id, withCache[id], withoutCache[id])
		}
		if !strings.Contains(withCache[id], "—") {
			t.Errorf("%s: suspiciously empty render", id)
		}
	}
}

// cancelOnGate is an Observer that cancels the run from inside a compiling
// gate once `after` gates have executed. Cancelling from within the compile
// makes mid-compile cancellation deterministic regardless of compile speed —
// wall-clock timers stopped landing reliably once the hot-path rework made
// whole compiles faster than a few milliseconds.
type cancelOnGate struct {
	cancel context.CancelFunc
	after  int
}

func (c cancelOnGate) GateScheduled(done, total int) {
	if done >= c.after {
		c.cancel()
	}
}
func (c cancelOnGate) Shuttle(q, from, to int)       {}
func (c cancelOnGate) Eviction(victim, from, to int) {}
func (c cancelOnGate) SwapInserted(a, b int)         {}

// TestCancelledRunLeavesNoGoroutines: a cancelled concurrent run must not
// strand worker goroutines (the runner joins its pool before returning).
func TestCancelledRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(4)
	r.DisableCache() // identical jobs would otherwise collapse and finish early
	jobs := make([]Job, 200)
	for i := range jobs {
		opts := *core.NewCompileConfig()
		// The first job to execute a gate cancels the whole run in flight.
		opts.Observer = cancelOnGate{cancel: cancel, after: 1}
		jobs[i] = Job{Spec: CompileSpec{App: "GHZ_n64", Compiler: "mussti", Config: &opts}}
	}
	if _, err := r.Run(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The pool is joined before Run returns; give the runtime a few
	// scheduling rounds to retire exiting goroutines, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before run, %d after cancelled run", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunnerPassesContextMidCompile: cancellation interrupts a measurement
// that is already compiling — the capability PR 1 lacked (it only stopped
// between measurements).
func TestRunnerPassesContextMidCompile(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(1)
	// The compile cancels itself from its 10th scheduled gate: success here
	// is only possible if the runner handed its ctx into the compiler and
	// the scheduler checks it mid-run — the capability PR 1 lacked (it only
	// stopped between measurements).
	opts := *core.NewCompileConfig()
	opts.Observer = cancelOnGate{cancel: cancel, after: 10}
	jobs := []Job{{Spec: CompileSpec{App: "SQRT_n117", Compiler: "mussti", Config: &opts}}}
	start := time.Now()
	_, err := r.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (compile was not interrupted)", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled run took %s, want a prompt mid-compile abort", elapsed)
	}
}
