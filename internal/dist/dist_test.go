package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/core"
	"mussti/internal/eval"
)

// TestWorkerHelper is not a test: it is the worker process the coordinator
// tests spawn, entered by re-executing the test binary with
// -test.run=^TestWorkerHelper$ and MUSSTI_DIST_HELPER=1. It speaks the
// envelope protocol on stdin/stdout and exits the process directly so the
// testing framework's trailing output never pollutes the protocol stream.
//
// Fault-injection modes, each arbitrated across the fleet by an O_EXCL lock
// file so exactly one worker misbehaves:
//
//   - MUSSTI_DIST_CRASH_LOCK: the winner dies the moment real work arrives
//     (heartbeat pings are skipped — this is a crash mid-job, not a hang).
//   - MUSSTI_DIST_STALE_LOCK: the winner answers its first job with a bogus
//     seq from nowhere, then keeps ponging — a protocol violation the
//     coordinator must treat as worker death.
//   - MUSSTI_DIST_HANG_LOCK: the winner reads forever and never writes a
//     byte — the shape only heartbeat timeouts can catch.
func TestWorkerHelper(t *testing.T) {
	if os.Getenv("MUSSTI_DIST_HELPER") != "1" {
		t.Skip("re-exec helper for the coordinator tests, not a test")
	}
	if winsLock(os.Getenv("MUSSTI_DIST_CRASH_LOCK")) {
		in := bufio.NewReader(os.Stdin)
		for {
			line, err := in.ReadBytes('\n')
			if err != nil {
				os.Exit(3)
			}
			if kind, err := SniffFrame(line); err != nil || kind == KindJob || kind == KindBatch {
				os.Exit(3) // die only once real work arrived
			}
		}
	}
	if winsLock(os.Getenv("MUSSTI_DIST_STALE_LOCK")) {
		staleWorker()
	}
	if winsLock(os.Getenv("MUSSTI_DIST_HANG_LOCK")) {
		in := bufio.NewReader(os.Stdin)
		for {
			if _, err := in.ReadBytes('\n'); err != nil {
				os.Exit(3)
			}
		}
	}
	r := eval.NewRunner(1)
	if dir := os.Getenv("MUSSTI_DIST_CACHEDIR"); dir != "" {
		dc, err := eval.NewDiskCache(dir)
		if err != nil {
			os.Exit(1)
		}
		r.SetDiskCache(dc)
	}
	if err := ServeWorker(context.Background(), os.Stdin, os.Stdout, r); err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// winsLock reports whether this process created the lock file first.
func winsLock(lock string) bool {
	if lock == "" {
		return false
	}
	f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// staleWorker answers pings correctly but its first job with a seq the
// coordinator never issued, then goes back to ponging without ever
// answering the real job. Never returns.
func staleWorker() {
	in := bufio.NewReader(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	emit := func(line []byte, err error) {
		if err != nil {
			os.Exit(1)
		}
		out.Write(append(line, '\n'))
		out.Flush()
	}
	for {
		line, err := in.ReadBytes('\n')
		if err != nil {
			os.Exit(3)
		}
		kind, err := SniffFrame(line)
		if err != nil {
			os.Exit(1)
		}
		switch kind {
		case KindPing:
			_, seq, err := DecodeHeartbeat(line)
			if err != nil {
				os.Exit(1)
			}
			emit(EncodePong(seq))
		case KindJob:
			seq, _, err := DecodeJob(line)
			if err != nil {
				os.Exit(1)
			}
			emit(EncodeResult(seq+1<<40, eval.Measurement{}, nil))
		case KindBatch:
			seqs, _, err := DecodeBatch(line)
			if err != nil {
				os.Exit(1)
			}
			emit(EncodeBatchResult([]WireResult{NewWireResult(seqs[0]+1<<40, eval.Measurement{}, nil)}))
		}
	}
}

// helperCoordinator spawns a coordinator whose workers are re-executions of
// this test binary in worker-helper mode. opts may be nil; its Env field is
// overwritten with the helper environment plus extraEnv.
func helperCoordinator(t *testing.T, n int, opts *CoordinatorOptions, extraEnv ...string) *Coordinator {
	t.Helper()
	argv := []string{os.Args[0], "-test.run=^TestWorkerHelper$"}
	env := append(os.Environ(), "MUSSTI_DIST_HELPER=1")
	env = append(env, extraEnv...)
	var o CoordinatorOptions
	if opts != nil {
		o = *opts
	}
	o.Env = env
	c, err := NewCoordinator(n, argv, &o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// testJobs is a small mixed workload: two grids, six jobs — enough to
// exercise both workers of a two-worker fleet and give retries somewhere to
// land.
func testJobs() []eval.Job {
	g22 := arch.MustNewGrid(2, 2, 12)
	g23 := arch.MustNewGrid(2, 3, 8)
	var jobs []eval.Job
	for _, app := range []string{"GHZ_n32", "BV_n32", "QAOA_n32"} {
		for _, g := range []*arch.Grid{g22, g23} {
			s := eval.CompileSpec{App: app, Compiler: "mussti", Grid: g}
			jobs = append(jobs, eval.Job{Spec: s})
		}
	}
	return jobs
}

// sameMeasurement compares two measurements modulo CompileTime — the one
// deliberately nondeterministic field (wall clock), which no deterministic
// experiment renders (fig10/fig11 are Serial and never reach a remote).
func sameMeasurement(a, b eval.Measurement) bool {
	a.CompileTime, b.CompileTime = 0, 0
	return a == b
}

// TestCoordinatorMatchesLocalExecution: the same job list run through a
// worker fleet and run in-process must produce identical measurements, in
// identical (paper) order — at lockstep (Pipeline=1), at the default
// window, and with coalescing disabled, since none of those settings may
// affect output.
func TestCoordinatorMatchesLocalExecution(t *testing.T) {
	jobs := testJobs()
	local, err := (*eval.Runner)(nil).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		opts CoordinatorOptions
	}{
		{"lockstep", CoordinatorOptions{Pipeline: 1}},
		{"pipelined", CoordinatorOptions{Pipeline: 4}},
		{"pipelined-uncoalesced", CoordinatorOptions{Pipeline: 4, DisableCoalescing: true}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			coord := helperCoordinator(t, 2, &v.opts)
			r := eval.NewRunner(2)
			r.SetRemote(coord)
			distributed, err := r.Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(local) != len(distributed) {
				t.Fatalf("local %d measurements, distributed %d", len(local), len(distributed))
			}
			for i := range local {
				if !sameMeasurement(local[i], distributed[i]) {
					t.Errorf("job %d differs:\nlocal       %+v\ndistributed %+v", i, local[i], distributed[i])
				}
			}
		})
	}
}

// TestCommandLauncherWrapsWorkerCommand: a CommandLauncher with an
// exec-style prefix (env(1) stands in for ssh) must produce the same
// results as direct local launch — the coordinator cannot tell.
func TestCommandLauncherWrapsWorkerCommand(t *testing.T) {
	if _, err := os.Stat("/usr/bin/env"); err != nil {
		t.Skip("no /usr/bin/env on this machine")
	}
	jobs := testJobs()[:2]
	local, err := (*eval.Runner)(nil).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	coord := helperCoordinator(t, 1, &CoordinatorOptions{Launcher: CommandLauncher{Prefix: []string{"/usr/bin/env"}}})
	r := eval.NewRunner(1)
	r.SetRemote(coord)
	distributed, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if !sameMeasurement(local[i], distributed[i]) {
			t.Errorf("job %d differs through CommandLauncher:\nlocal       %+v\ndistributed %+v", i, local[i], distributed[i])
		}
	}
}

// TestWorkerDeathRetry is the fault-injection test: one worker of the fleet
// dies mid-job (after receiving it), and the coordinator must reassign
// every job in its window to another worker, restore fleet capacity, and
// still hand back every measurement in paper order. With the default
// pipeline the dead worker takes a whole window of jobs down with it, so
// this exercises the requeue-all path, not just single-job retry.
func TestWorkerDeathRetry(t *testing.T) {
	lock := tempPath(t, "crash-once")
	jobs := testJobs()
	local, err := (*eval.Runner)(nil).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	coord := helperCoordinator(t, 2, nil, "MUSSTI_DIST_CRASH_LOCK="+lock)
	r := eval.NewRunner(2)
	r.SetRemote(coord)
	distributed, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("run did not survive a worker death: %v", err)
	}
	if _, err := os.Stat(lock); err != nil {
		t.Fatalf("crash lock untouched — the fault was never injected: %v", err)
	}
	for i := range local {
		if !sameMeasurement(local[i], distributed[i]) {
			t.Errorf("job %d differs after retry:\nlocal       %+v\ndistributed %+v", i, local[i], distributed[i])
		}
	}
	// The dead worker must have been replaced: the fleet is back to size.
	coord.mu.Lock()
	alive := len(coord.procs)
	coord.mu.Unlock()
	if alive != 2 {
		t.Errorf("fleet has %d workers after a death, want 2 (replacement spawned)", alive)
	}
	if st := coord.Stats(); st.Deaths < 1 || st.Retried < 1 {
		t.Errorf("stats after an injected death: %+v, want Deaths>=1 and Retried>=1", st)
	}
}

// TestStaleSeqIsWorkerDeath: a worker answering a seq the coordinator never
// gave it (a stale answer from a previous window, a duplicate, an
// invention) can no longer be trusted; the coordinator must reap it like a
// death and complete its real job on the replacement.
func TestStaleSeqIsWorkerDeath(t *testing.T) {
	lock := tempPath(t, "stale-once")
	coord := helperCoordinator(t, 1, nil, "MUSSTI_DIST_STALE_LOCK="+lock)
	s := eval.CompileSpec{App: "GHZ_n32", Compiler: "mussti", Grid: arch.MustNewGrid(2, 2, 12)}
	m, err := coord.RunJob(context.Background(), eval.Job{Spec: s})
	if err != nil {
		t.Fatalf("job did not survive a stale-seq worker: %v", err)
	}
	localMs, err := (*eval.Runner)(nil).Run(context.Background(), []eval.Job{{Spec: s}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMeasurement(m, localMs[0]) {
		t.Errorf("measurement after stale-seq retry differs:\nlocal  %+v\nremote %+v", localMs[0], m)
	}
	if _, err := os.Stat(lock); err != nil {
		t.Fatalf("stale lock untouched — the fault was never injected: %v", err)
	}
	if st := coord.Stats(); st.Deaths < 1 || st.Retried < 1 {
		t.Errorf("stats after a stale-seq violation: %+v, want Deaths>=1 and Retried>=1", st)
	}
}

// TestHeartbeatTimeoutRequeuesWindow: a worker that goes completely silent
// with a full window of jobs in flight must be declared dead by the
// heartbeat deadline, and every windowed job requeued and completed on the
// replacement — the liveness path no transport error ever triggers.
func TestHeartbeatTimeoutRequeuesWindow(t *testing.T) {
	lock := tempPath(t, "hang-once")
	coord := helperCoordinator(t, 1, &CoordinatorOptions{
		Pipeline:        3,
		Heartbeat:       30 * time.Millisecond,
		HeartbeatMisses: 3,
	}, "MUSSTI_DIST_HANG_LOCK="+lock)
	jobs := testJobs()[:3]
	local, err := (*eval.Runner)(nil).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ms := make([]eval.Measurement, len(jobs))
	errs := make([]error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = coord.RunJob(context.Background(), jobs[i])
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("windowed jobs never completed after the worker hung")
	}
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d failed after heartbeat reap: %v", i, errs[i])
		}
		if !sameMeasurement(ms[i], local[i]) {
			t.Errorf("job %d differs after heartbeat requeue:\nlocal  %+v\nremote %+v", i, local[i], ms[i])
		}
	}
	if _, err := os.Stat(lock); err != nil {
		t.Fatalf("hang lock untouched — the fault was never injected: %v", err)
	}
	st := coord.Stats()
	if st.Deaths < 1 {
		t.Errorf("Deaths = %d after a hung worker, want >= 1", st.Deaths)
	}
	if st.Retried < uint64(len(jobs)) {
		t.Errorf("Retried = %d, want >= %d (the whole window requeued)", st.Retried, len(jobs))
	}
	coord.mu.Lock()
	alive := len(coord.procs)
	coord.mu.Unlock()
	if alive != 1 {
		t.Errorf("fleet has %d workers after the reap, want 1 (replacement spawned)", alive)
	}
}

// TestCloseRacesRunJobDuringRespawn: Close landing while the coordinator is
// mid-respawn (worker crashed, replacement starting, job about to requeue)
// must neither hang nor leak — RunJob returns a result or a closed error,
// and Close still reaps everything.
func TestCloseRacesRunJobDuringRespawn(t *testing.T) {
	lock := tempPath(t, "crash-close-race")
	coord := helperCoordinator(t, 1, nil, "MUSSTI_DIST_CRASH_LOCK="+lock)
	s := eval.CompileSpec{App: "GHZ_n32", Compiler: "mussti", Grid: arch.MustNewGrid(2, 2, 12)}
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunJob(context.Background(), eval.Job{Spec: s})
		done <- err
	}()
	// Let the crash happen and the respawn begin, then slam the door.
	time.Sleep(20 * time.Millisecond)
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, errClosed) && !strings.Contains(err.Error(), "dist:") {
			t.Errorf("RunJob across Close-during-respawn: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunJob hung across Close during a respawn")
	}
}

// TestJobErrorsAreNotRetried: a job that fails for real (unknown app) must
// surface its error without consuming a worker — errors are facts, not
// faults.
func TestJobErrorsAreNotRetried(t *testing.T) {
	coord := helperCoordinator(t, 1, nil)
	s := eval.CompileSpec{App: "NoSuchApp_n5", Compiler: "mussti"}
	_, err := coord.RunJob(context.Background(), eval.Job{Spec: s})
	if err == nil {
		t.Fatal("unknown app succeeded remotely")
	}
	if !strings.Contains(err.Error(), "unknown family") {
		t.Errorf("error lost its text crossing the wire: %v", err)
	}
	// The worker answered (it did not die), so the fleet must be intact and
	// immediately reusable.
	s2 := eval.CompileSpec{App: "GHZ_n32", Compiler: "mussti", Grid: arch.MustNewGrid(2, 2, 12)}
	if _, err := coord.RunJob(context.Background(), eval.Job{Spec: s2}); err != nil {
		t.Errorf("fleet unusable after a job error: %v", err)
	}
	if st := coord.Stats(); st.Deaths != 0 || st.Retried != 0 {
		t.Errorf("job error consumed fault machinery: %+v, want zero Deaths/Retried", st)
	}
}

// blockingCompiler is a registry compiler for the worker helper: it marks
// its start by creating the file "started" in $MUSSTI_DIST_BLOCK_DIR, then
// holds the compile until the test creates "release" there (or its context
// ends), so the coordinator can cancel a job that is provably in flight
// however fast the real compilers get. Coordinator and workers are the same
// test binary, so both resolve it from the registry.
type blockingCompiler struct{}

func (blockingCompiler) Name() string { return "dist-block-test" }

func (blockingCompiler) Compile(ctx context.Context, _ *circuit.Circuit, _ arch.Target, _ *core.CompileConfig) (*core.Result, error) {
	dir := os.Getenv("MUSSTI_DIST_BLOCK_DIR")
	if dir == "" {
		return nil, errors.New("dist-block-test: MUSSTI_DIST_BLOCK_DIR unset")
	}
	if err := os.WriteFile(filepath.Join(dir, "started"), nil, 0o644); err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "release")); err == nil {
			return nil, errors.New("dist-block-test: released")
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func init() { core.MustRegisterCompiler(blockingCompiler{}) }

// waitForFile polls until path exists or the deadline passes.
func waitForFile(t *testing.T, path string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never appeared", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelLeavesNoOrphansOrGoroutines is PR 2's cancellation discipline
// extended across process boundaries: cancelling the coordinator's context
// mid-compile must abort promptly, and — after Close — leave neither
// orphaned worker processes nor leaked goroutines behind. (With multiplexed
// dispatch a cancelled job no longer kills its worker: the abandoned result
// is dropped on arrival and the worker lives on for the next job.)
func TestCancelLeavesNoOrphansOrGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	blockDir := t.TempDir()
	coord := helperCoordinator(t, 2, nil, "MUSSTI_DIST_BLOCK_DIR="+blockDir)

	// Snapshot the fleet's PIDs while it is alive.
	pids := coordPIDs(coord)
	if len(pids) != 2 {
		t.Fatalf("expected 2 worker PIDs, got %v", pids)
	}

	ctx, cancel := context.WithCancel(context.Background())
	s := eval.CompileSpec{App: "GHZ_n4", Compiler: blockingCompiler{}.Name()}
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.RunJob(ctx, eval.Job{Spec: s})
		errCh <- err
	}()
	// Cancel only once a worker is inside the compile. It stays blocked
	// until released below, so RunJob can only return through the cancel.
	waitForFile(t, filepath.Join(blockDir, "started"), 10*time.Second)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled RunJob returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunJob did not return after cancellation")
	}
	// Let the abandoned compile finish so the worker exits on stdin EOF.
	if err := os.WriteFile(filepath.Join(blockDir, "release"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	// Every worker process must be gone (kill(pid, 0) fails for reaped
	// PIDs). A brief retry loop absorbs scheduler lag.
	deadline := time.Now().Add(3 * time.Second)
	for _, pid := range pids {
		for syscall.Kill(pid, 0) == nil {
			if time.Now().After(deadline) {
				t.Fatalf("worker PID %d still alive after Close", pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// And the coordinator's goroutines must drain.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after cancelled run + Close", before, runtime.NumGoroutine())
}

// TestFleetLostFailsInsteadOfHanging: when the last worker dies AND its
// replacement cannot spawn (worker binary gone — rebuilt mid-run, deleted,
// fork limits), RunJob must fail with an error rather than block forever on
// an idle pool nothing will ever refill.
func TestFleetLostFailsInsteadOfHanging(t *testing.T) {
	// A stand-in worker that dies on its first job: reads one line, exits.
	script := filepath.Join(t.TempDir(), "dying-worker.sh")
	if err := os.WriteFile(script, []byte("#!/bin/sh\nread line\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(1, []string{script}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// The fleet is up; now make every respawn fail.
	if err := os.Remove(script); err != nil {
		t.Fatal(err)
	}
	s := eval.CompileSpec{App: "GHZ_n32", Compiler: "mussti", Grid: arch.MustNewGrid(2, 2, 12)}
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunJob(context.Background(), eval.Job{Spec: s})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("job succeeded on a dead fleet")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunJob hung after the fleet was lost")
	}
}

// TestCloseIdempotentAndFailsNewJobs: Close twice is fine; RunJob after
// Close reports the closed coordinator instead of hanging.
func TestCloseIdempotentAndFailsNewJobs(t *testing.T) {
	coord := helperCoordinator(t, 1, nil)
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	s := eval.CompileSpec{App: "GHZ_n32", Compiler: "mussti", Grid: arch.MustNewGrid(2, 2, 12)}
	if _, err := coord.RunJob(context.Background(), eval.Job{Spec: s}); !errors.Is(err, errClosed) {
		t.Errorf("RunJob after Close: %v, want errClosed", err)
	}
}

// TestCapacityWidensRunner: SetRemote with a pipelined coordinator must
// widen the runner's pool to workers × window, so every window can fill.
func TestCapacityWidensRunner(t *testing.T) {
	coord := helperCoordinator(t, 2, &CoordinatorOptions{Pipeline: 4})
	if got := coord.Capacity(); got != 8 {
		t.Fatalf("Capacity() = %d, want 8", got)
	}
	r := eval.NewRunner(2)
	r.SetRemote(coord)
	if got := r.Workers(); got != 8 {
		t.Errorf("runner widened to %d workers, want 8", got)
	}
	// A wider local pool is never narrowed.
	r16 := eval.NewRunner(16)
	r16.SetRemote(coord)
	if got := r16.Workers(); got != 16 {
		t.Errorf("runner narrowed to %d workers, want 16", got)
	}
}

// TestPrefixWriterLineBuffering: the stderr tagger must prefix every line,
// hold partial lines until their newline arrives (even across Write
// calls), and flush a held fragment on demand.
func TestPrefixWriterLineBuffering(t *testing.T) {
	var sb strings.Builder
	pw := newPrefixWriter(&sb, "[w7] ")
	fmt.Fprintf(pw, "first line\nsecond ")
	fmt.Fprintf(pw, "continues\nthird has no newline")
	if got, want := sb.String(), "[w7] first line\n[w7] second continues\n"; got != want {
		t.Errorf("before flush:\n got %q\nwant %q", got, want)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), "[w7] first line\n[w7] second continues\n[w7] third has no newline\n"; got != want {
		t.Errorf("after flush:\n got %q\nwant %q", got, want)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); strings.HasSuffix(got, "\n\n") {
		t.Errorf("empty flush emitted output: %q", got)
	}
}

// TestWorkerStderrIsPrefixed: fleet stderr arriving at the coordinator's
// writer must carry the per-worker tag.
func TestWorkerStderrIsPrefixed(t *testing.T) {
	script := filepath.Join(t.TempDir(), "noisy-worker.sh")
	if err := os.WriteFile(script, []byte("#!/bin/sh\necho 'hello from the fleet' >&2\nwhile read line; do :; done\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sb strings.Builder
	lockedW := writerFunc(func(b []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(b)
	})
	coord, err := NewCoordinator(2, []string{script}, &CoordinatorOptions{Stderr: lockedW})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := sb.String()
		mu.Unlock()
		if strings.Contains(got, "[w0] hello from the fleet\n") && strings.Contains(got, "[w1] hello from the fleet\n") {
			break
		}
		if time.Now().After(deadline) {
			coord.Close()
			t.Fatalf("worker stderr not prefixed within deadline; got %q", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// coordPIDs snapshots the PIDs of the coordinator's live workers.
func coordPIDs(c *Coordinator) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	pids := make([]int, 0, len(c.procs))
	for w := range c.procs {
		if pid := w.h.Pid(); pid > 0 {
			pids = append(pids, pid)
		}
	}
	return pids
}

// tempPath returns a path in a test temp dir that does not exist yet.
func tempPath(t *testing.T, name string) string {
	t.Helper()
	return t.TempDir() + "/" + name
}
