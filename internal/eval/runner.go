package eval

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mussti/internal/circuit/bench"
	"mussti/internal/core"
	"mussti/internal/pool"
)

// This file is the concurrent measurement runner. Every experiment in this
// package is a fixed set of independent (application, compiler, device)
// measurements followed by pure formatting, so each one decomposes into a
// Plan: an ordered job list plus a renderer over the ordered results. Jobs
// fan out over a bounded worker pool; results keep their enqueue positions,
// so the renderer consumes them in exactly the order the old sequential
// loops produced them and the rendered tables are byte-identical to the
// sequential output at any worker count.
//
// The runner threads its context into every compile (cancellation aborts a
// measurement mid-flight, not just between measurements), dedupes identical
// measurement points across experiments through a shared Memo, and can
// attach per-job progress observers.

// Job is one independent measurement, described by its registry-resolved
// Spec. Jobs share no mutable state, so any number may run concurrently.
type Job struct {
	Spec CompileSpec
}

// Resolve returns the job's spec; the error is always nil. Code in this
// module reads j.Spec directly.
func (j Job) Resolve() (CompileSpec, error) { return j.Spec, nil }

// run resolves the spec's compiler in the registry, builds the target
// machine, compiles, and packages the metrics as a Measurement whose
// Compiler column carries the compiler's display label. ctx cancellation
// aborts the compile within one scheduler step.
func (j Job) run(ctx context.Context) (Measurement, error) {
	s := j.Spec
	comp, err := core.LookupCompiler(s.Compiler)
	if err != nil {
		return Measurement{}, err
	}
	c, err := bench.ByName(s.App)
	if err != nil {
		return Measurement{}, err
	}
	target, err := s.target(c.NumQubits)
	if err != nil {
		return Measurement{}, err
	}
	cfg := s.config(comp)
	res, err := comp.Compile(ctx, c, target, &cfg)
	if err != nil {
		return Measurement{}, fmt.Errorf("eval: %s/%s: %w", s.App, s.Compiler, err)
	}
	return MeasurementOf(s.App, comp, c, res), nil
}

// WithObserver returns a copy of the job with obs attached to its compile
// configuration — the seam per-request progress streaming (internal/service)
// hangs on. The original job (and its spec) stays untouched, and the cache
// key is unaffected: Observer is excluded from CompileConfig.CacheKey, so an
// observed request still coalesces with (and is served by) unobserved ones.
func (j Job) WithObserver(obs core.Observer) Job {
	var cfg core.CompileConfig
	if comp, err := core.LookupCompiler(j.Spec.Compiler); err == nil {
		// One owner for the nil-Config resolution rule: CompileSpec.config.
		cfg = j.Spec.config(comp)
	} else if j.Spec.Config != nil {
		cfg = *j.Spec.Config
	}
	cfg.Observer = obs
	j.Spec.Config = &cfg
	return j
}

// Plan is a decomposed experiment: the measurement jobs in deterministic
// paper order, and a renderer that turns the ordered results into the
// experiment's text output.
type Plan struct {
	Jobs []Job
	// Render formats the results. Results arrive in job order regardless
	// of execution order; Render must not depend on wall-clock effects.
	Render func(res *Results) (string, error)
	// Serial forces sequential in-place execution even when a Runner is
	// supplied. Set it on experiments whose rendered cells are wall-clock
	// measurements (Fig. 10/11 print CompileTime): concurrent neighbours
	// would contend for CPU and distort the numbers being reported, and a
	// cache hit would report another experiment's timing — so Serial plans
	// also bypass the measurement cache.
	Serial bool
}

// PlanFunc builds an experiment's plan. Building is cheap (no compilation
// happens until the jobs run).
type PlanFunc func() (*Plan, error)

// Results hands measurements back to a renderer in job order. The cursor
// API lets renderers keep the same nested-loop shape as the planners that
// enqueued the jobs.
type Results struct {
	ms []Measurement
	i  int
}

// Next returns the next measurement in job order. It panics if the
// renderer consumes more results than the plan enqueued — a planner/
// renderer mismatch, which is a programming error.
func (r *Results) Next() Measurement {
	if r.i >= len(r.ms) {
		panic("eval: renderer consumed more measurements than planned")
	}
	m := r.ms[r.i]
	r.i++
	return m
}

// Take returns the next n measurements in job order.
func (r *Results) Take(n int) []Measurement {
	out := make([]Measurement, n)
	for i := range out {
		out[i] = r.Next()
	}
	return out
}

// Runner executes job lists over a bounded worker pool. The pool bound is
// shared by every Run and RunJobs call on the same Runner, so concurrent
// experiments (the CLI's all-experiments mode) stay within one global
// concurrency budget. Runs on the same Runner also share its measurement
// cache: identical (application, compiler, device config, options) points
// across experiments compile exactly once per process.
type Runner struct {
	workers  int
	pool     *pool.Pool // cap workers; one slot per running unit
	memo     *Memo
	progress *progressSink
	remote   RemoteExecutor
	// batching, when true (the default), groups same-circuit jobs of a
	// batch-capable compiler through CompileBatch so they share per-circuit
	// prep; see planUnits. Output is byte-identical either way.
	batching bool
	// hook, when set, observes every job completed through the per-job path;
	// see SetJobHook.
	hook func(JobOutcome)
}

// JobOutcome describes one finished measurement call for telemetry sinks —
// the compilation service's latency quantiles and hit-rate counters feed on
// these. It carries outcomes, never results: the measurement itself flows
// through the normal return path.
type JobOutcome struct {
	// Key is the measurement's cache key; empty for uncacheable jobs
	// (traced runs) and for cache-disabled runners.
	Key string
	// Cached reports that the call was served by the memo or disk cache —
	// coalesced onto an in-flight compile, replayed from memory, or read
	// from the shared store — without compiling in this call.
	Cached bool
	// Wall is the wall-clock latency of the whole call, queueing inside the
	// memo included.
	Wall time.Duration
	// Err is the call's error, nil on success (cancellation included).
	Err error
}

// SetJobHook registers fn to observe every job completed through the
// runner's per-job path: RunJob, RunKeyed, and each singleton unit of Run
// and RunJobs. (Members of a grouped batch unit do not report — the
// experiment CLI's bulk sweeps are not service traffic.) fn is called
// synchronously from the goroutine that ran the job, so it must be cheap and
// safe for concurrent use. Call it before the runner sees traffic.
func (r *Runner) SetJobHook(fn func(JobOutcome)) { r.hook = fn }

// RemoteExecutor dispatches one job to an external execution substrate — a
// fleet of worker processes (internal/dist), a remote service, anything that
// can turn a Job into its Measurement. The runner keeps every scheduling
// responsibility (worker pool bound, deterministic first-error semantics,
// paper-order reassembly, memoization); the executor is pure transport, so
// rendered output stays byte-identical to in-process execution.
//
// RunJob must honour ctx cancellation promptly and must be safe for
// concurrent calls up to the runner's worker count.
type RemoteExecutor interface {
	RunJob(ctx context.Context, j Job) (Measurement, error)
}

// PipelinedExecutor is a RemoteExecutor that absorbs more than one job per
// transport endpoint — a dist coordinator keeping a window of envelopes in
// flight per worker. Capacity reports how many concurrent RunJob calls the
// executor can hold in flight (workers × pipeline window); SetRemote widens
// the runner's pool to match, so every window stays full instead of the
// pool bound throttling dispatch to one job per worker.
type PipelinedExecutor interface {
	RemoteExecutor
	// Capacity is the number of concurrent RunJob calls the executor absorbs
	// without queueing.
	Capacity() int
}

// NewRunner returns a runner with the given concurrency; workers <= 0 means
// runtime.GOMAXPROCS(0). The cross-experiment measurement cache starts
// enabled; DisableCache turns it off. A nil *Runner is valid everywhere one
// is accepted and means strictly sequential, uncached in-place execution.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, pool: pool.New(workers), memo: NewMemo(), batching: true}
}

// Workers reports the pool size.
func (r *Runner) Workers() int {
	if r == nil {
		return 1
	}
	return r.workers
}

// DisableCache turns the cross-experiment measurement cache off: every job
// compiles from scratch. Rendered output is byte-identical either way; only
// the work performed changes.
func (r *Runner) DisableCache() { r.memo = nil }

// DisableBatching turns off same-circuit job grouping: every job compiles
// through the per-job path with its own prep, as before batch compilation
// existed. Rendered output is byte-identical either way; only the work
// performed changes.
func (r *Runner) DisableBatching() { r.batching = false }

// CacheStats reports the measurement cache's hit and miss counters (misses
// are actual compilations). Zeros when the cache is disabled or the runner
// is nil.
func (r *Runner) CacheStats() (hits, misses int64) {
	if r == nil || r.memo == nil {
		return 0, 0
	}
	return r.memo.Stats()
}

// SetProgress attaches a progress sink: every job run on this runner emits
// throttled per-job tick lines (gates scheduled, shuttles, evictions) to w.
// Call it before Run; w must tolerate concurrent jobs' interleaved lines
// (the sink serialises writes).
func (r *Runner) SetProgress(w io.Writer) { r.progress = newProgressSink(w) }

// SetRemote routes job execution through x: the runner still schedules,
// memoizes, reassembles and reports exactly as before, but the compile
// itself happens wherever x dispatches it (a spawned worker process fleet
// via internal/dist, typically). Call it before Run. Per-step progress ticks
// cannot cross a process boundary, so with a remote set the progress sink
// reports job completions only.
//
// A PipelinedExecutor widens the pool to its capacity: with dispatch
// pipelined, the number of jobs profitably in flight is workers × window,
// not the local core count — the compiles happen in other processes, and a
// narrower pool would leave windows idle.
func (r *Runner) SetRemote(x RemoteExecutor) {
	r.remote = x
	if p, ok := x.(PipelinedExecutor); ok {
		if c := p.Capacity(); c > r.workers {
			r.workers = c
			r.pool = pool.New(c)
		}
	}
}

// SetDiskCache backs the runner's measurement cache with a shared on-disk
// store: cache misses consult dir before compiling, and every compiled
// measurement is persisted for other processes (and later runs) to reuse.
// The disk layer rides the in-memory memo, so DisableCache also disables it.
func (r *Runner) SetDiskCache(d *DiskCache) {
	if r.memo != nil {
		r.memo.SetDisk(d)
	}
}

// DiskCacheStats reports the on-disk cache's hit and miss counters; zeros
// when no disk cache is attached.
func (r *Runner) DiskCacheStats() (hits, misses int64) {
	if r == nil || r.memo == nil || r.memo.disk == nil {
		return 0, 0
	}
	return r.memo.disk.Stats()
}

// RunJob executes one job with the runner's cache, progress and remote
// layers applied — the same path Run drives for every planned job, exposed
// so distributed workers (internal/dist) execute received jobs with
// identical semantics: context cancellation, observer ticks and memoization
// intact. A nil runner executes the job bare.
func (r *Runner) RunJob(ctx context.Context, j Job) (Measurement, error) {
	if r == nil {
		return j.run(ctx)
	}
	return r.runJob(ctx, j)
}

// RunJobs executes a job list on the calling goroutine, returning every
// member's measurement and error positionally — unlike Run, no job's
// failure aborts its neighbours. It is the execution path for coalesced
// wire batches: a distributed worker (internal/dist) receives several jobs
// in one envelope and must answer each individually. Same-circuit members
// group through the shared-prep batch path exactly as Run would group them,
// behind the same memo and disk-cache layers; if a batch unit fails as a
// whole, its members re-run individually so each reports its own error. A
// nil runner executes the jobs bare, in order.
func (r *Runner) RunJobs(ctx context.Context, jobs []Job) ([]Measurement, []error) {
	ms := make([]Measurement, len(jobs))
	errs := make([]error, len(jobs))
	if r == nil {
		for i, j := range jobs {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			ms[i], errs[i] = j.run(ctx)
		}
		return ms, errs
	}
	units := r.planUnits(jobs)
	for u, unit := range units {
		// The pool bounds this runner's global concurrency budget; one slot
		// per unit, exactly as Run's workers claim it.
		err := r.pool.Do(ctx, func() {
			switch err := r.runUnit(ctx, jobs, unit, ms); {
			case err == nil:
			case len(unit) == 1:
				errs[unit[0]] = err
			default:
				// The batch unit failed as a whole (first-member
				// attribution); fall back to per-job execution so every
				// member reports its own result or error. Members the batch
				// already computed hit the memo and cost nothing.
				for _, i := range unit {
					ms[i], errs[i] = r.runJob(ctx, jobs[i])
				}
			}
		})
		if err != nil {
			// Cancelled while waiting: every remaining unit fails — ctx
			// stays done.
			for _, rest := range units[u:] {
				for _, i := range rest {
					errs[i] = err
				}
			}
			return ms, errs
		}
	}
	return ms, errs
}

// runUnit executes one planned unit on the calling goroutine, which holds
// one pool slot for it: a singleton through the per-job path, a same-circuit
// group through one CompileBatch. Each successful measurement lands in ms by
// job index. On failure the unit's error is returned for its first member —
// the lowest job index, consistent with Run's first-error rule.
func (r *Runner) runUnit(ctx context.Context, jobs []Job, unit []int, ms []Measurement) error {
	if len(unit) > 1 {
		return r.runBatchUnit(ctx, jobs, unit, ms)
	}
	m, err := r.runJob(ctx, jobs[unit[0]])
	if err == nil {
		ms[unit[0]] = m
	}
	return err
}

// runJob executes one job with the runner's cache, progress and remote
// layers applied, reporting the outcome to the job hook.
func (r *Runner) runJob(ctx context.Context, j Job) (Measurement, error) {
	var prog *jobProgress
	exec := j
	if r.progress != nil {
		prog = r.progress.job(j.label())
		if r.remote == nil {
			// Observers cannot cross a process boundary; remotely executed
			// jobs report completion ticks only.
			exec = exec.WithObserver(prog)
		}
	}
	run := exec.run
	if r.remote != nil {
		run = func(ctx context.Context) (Measurement, error) { return r.remote.RunJob(ctx, j) }
	}
	key, _ := j.Spec.CacheKey()
	m, cached, err := r.memoized(ctx, key, run)
	if prog != nil && err == nil {
		prog.finish(cached)
	}
	return m, err
}

// RunKeyed executes fn through the runner's singleflight memo and disk-cache
// layers under an explicit cache key — the seam for measurements that are
// not registry Jobs (the compilation service's ad-hoc QASM circuits, keyed
// by a content hash). Concurrent RunKeyed calls sharing a key coalesce onto
// one compute exactly like jobs sharing a cache key, and a successful result
// persists to any attached disk cache under key. Like RunJob it claims no
// worker-pool slot: admission is the caller's responsibility. A nil runner,
// a disabled cache or an empty key runs fn directly.
func (r *Runner) RunKeyed(ctx context.Context, key string, fn func(context.Context) (Measurement, error)) (Measurement, error) {
	if r == nil {
		return fn(ctx)
	}
	m, _, err := r.memoized(ctx, key, fn)
	return m, err
}

// memoized is the per-job path's one memo-and-hook step, shared by runJob
// and RunKeyed: fn runs through the memo under key (an empty key, or a
// disabled cache, runs it directly) and the outcome goes to the job hook.
// cached reports that fn did not run in this call.
func (r *Runner) memoized(ctx context.Context, key string, fn func(context.Context) (Measurement, error)) (m Measurement, cached bool, err error) {
	var start time.Time
	if r.hook != nil {
		start = time.Now() //mussti:allow=determinism job-latency telemetry for the hook, never measured output
	}
	if key != "" && r.memo != nil {
		cached = true
		m, err = r.memo.Do(ctx, key, func() (Measurement, error) {
			cached = false
			return fn(ctx)
		})
	} else {
		key = ""
		m, err = fn(ctx)
	}
	if r.hook != nil {
		r.hook(JobOutcome{Key: key, Cached: cached, Wall: time.Since(start), Err: err}) //mussti:allow=determinism job-latency telemetry for the hook, never measured output
	}
	return m, cached, err
}

// Run executes all jobs and returns their measurements in job order. On
// failure it cancels the rest of the run — aborting in-flight compiles and
// skipping unclaimed jobs — and returns the error of the lowest-indexed job
// that reported a real failure. (Unlike PR 1's between-jobs cancellation, a
// lower-indexed in-flight job may now be interrupted before its own failure
// surfaces, so on multi-failure runs the reported error can differ from the
// strictly sequential one; successful runs are unaffected.) A cancelled ctx
// aborts promptly — in-flight compiles stop within one scheduler step — and
// surfaces ctx.Err().
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]Measurement, error) {
	if r == nil {
		return runSequential(ctx, jobs)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ms := make([]Measurement, len(jobs))
	errs := make([]error, len(jobs)) // only real job errors; cancellations stay nil
	units := r.planUnits(jobs)
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(r.workers, len(units)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The pool is shared by every Run call on this Runner, holding
			// concurrent experiments to one global concurrency budget. Its
			// Do refuses a done ctx even with a slot free, so cancellation
			// always wins.
			for claimed := true; claimed; {
				err := r.pool.Do(ctx, func() {
					u := int(next.Add(1)) - 1
					if u >= len(units) {
						claimed = false
						return
					}
					switch err := r.runUnit(ctx, jobs, units[u], ms); {
					case err == nil:
						done.Add(int64(len(units[u])))
					case ctx.Err() != nil && errors.Is(err, ctx.Err()):
						// The unit was interrupted by cancellation, not by a
						// failure of its own; the final ctx.Err() return
						// covers it.
					default:
						errs[units[u][0]] = err
						cancel() // abort in-flight units, skip unclaimed ones
					}
				})
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if int(done.Load()) < len(jobs) {
		// Only a cancelled ctx can leave jobs unfinished without an error.
		return nil, ctx.Err()
	}
	return ms, nil
}

// runSequential is the nil-Runner path: jobs run in order on the calling
// goroutine, exactly like the pre-runner harness (uncached, unobserved —
// ctx still interrupts a compile mid-flight).
func runSequential(ctx context.Context, jobs []Job) ([]Measurement, error) {
	ms := make([]Measurement, len(jobs))
	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := j.run(ctx)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

// Execute runs the plan's jobs on r (nil = sequential) and renders the
// results.
func (p *Plan) Execute(ctx context.Context, r *Runner) (string, error) {
	out, _, err := p.ExecuteCollect(ctx, r)
	return out, err
}

// ExecuteCollect is Execute, additionally returning the structured
// measurements in job order — the rows behind the rendered text, for sinks
// (CSV export) that want data instead of scraped tables. A renderer that
// consumes fewer measurements than the plan enqueued is an error — the
// planner/renderer loops have drifted apart and the rendered columns can no
// longer be trusted (over-consumption panics in Results.Next).
func (p *Plan) ExecuteCollect(ctx context.Context, r *Runner) (string, []Measurement, error) {
	if p.Serial {
		r = nil
	}
	ms, err := r.Run(ctx, p.Jobs)
	if err != nil {
		return "", nil, err
	}
	res := &Results{ms: ms}
	out, err := p.Render(res)
	if err != nil {
		return "", nil, err
	}
	if res.i != len(res.ms) {
		return "", nil, fmt.Errorf("eval: renderer consumed %d of %d measurements", res.i, len(res.ms))
	}
	return out, ms, nil
}

// runPlan builds and sequentially executes a plan — the implementation
// behind the package's exported experiment functions (Table2, Fig6, ...),
// which keep their historical sequential semantics.
func runPlan(pf PlanFunc) (string, error) {
	p, err := pf()
	if err != nil {
		return "", err
	}
	return p.Execute(context.Background(), nil)
}
