// Package mussti is the public API of the MUSS-TI reproduction: a
// multi-level shuttle-scheduling compiler for entanglement-module-linked
// trapped-ion (EML-QCCD) devices, after Wu et al., MICRO 2025.
//
// Every compiler — MUSS-TI and the paper's three baselines — implements the
// Compiler interface and lives in a process-wide registry under a stable
// name ("mussti", "murali", "dai", "mqt"). A Compiler schedules a Circuit
// onto any Target machine (an EML-QCCD *Device or a monolithic QCCD *Grid)
// under one shared CompileConfig, and reports one unified *Result.
//
// A minimal session:
//
//	c := mussti.Benchmark("QFT_n32")              // or build a Circuit by hand
//	dev := mussti.NewDevice(mussti.DeviceConfigFor(c.NumQubits))
//	comp, _ := mussti.LookupCompiler("mussti")
//	res, err := comp.Compile(ctx, c, dev, nil)    // nil config = paper defaults
//	fmt.Println(res.Metrics.Shuttles, res.Metrics.Fidelity.Log10())
//
// Tweak a knob with the functional options layered over the defaults:
//
//	cfg := mussti.NewCompileConfig(mussti.WithLookAhead(6))
//	res, err = comp.Compile(ctx, c, dev, cfg)
//
// Or compare every registered compiler on one machine:
//
//	g, _ := mussti.NewGrid(2, 3, 8)
//	for _, comp := range mussti.Compilers() {
//		res, err := comp.Compile(ctx, c, g, nil)
//		...
//	}
//
// Out-of-tree compilers join through RegisterCompiler and automatically
// appear in every experiment, the measurement cache and CSV output of the
// harness. The pre-registry entry points (Compile, CompileContext,
// CompileBaseline, CompileBaselineContext) remain as deprecated wrappers
// with unchanged behaviour.
//
// The package re-exports the stable parts of the internal packages:
// circuit construction (Circuit, Gate), benchmark generators, EML-QCCD and
// grid architectures, the physics model, the compiler registry, and the
// experiment harness that regenerates every table and figure of the paper.
package mussti

import (
	"context"
	"io"

	"mussti/internal/arch"
	"mussti/internal/baseline"
	"mussti/internal/circuit"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
	"mussti/internal/dist"
	"mussti/internal/eval"
	"mussti/internal/physics"
	"mussti/internal/service"
	"mussti/internal/sim"
)

// Circuit is the quantum-circuit IR: an ordered gate list over n qubits.
type Circuit = circuit.Circuit

// Gate is a single circuit operation.
type Gate = circuit.Gate

// Kind tags a gate's operation.
type Kind = circuit.Kind

// Re-exported gate kinds (the full set lives in internal/circuit).
const (
	KindH       = circuit.KindH
	KindX       = circuit.KindX
	KindRZ      = circuit.KindRZ
	KindMS      = circuit.KindMS
	KindCX      = circuit.KindCX
	KindCZ      = circuit.KindCZ
	KindCP      = circuit.KindCP
	KindSwap    = circuit.KindSwap
	KindMeasure = circuit.KindMeasure
)

// NewCircuit returns an empty named circuit over n qubits.
func NewCircuit(name string, n int) *Circuit { return circuit.New(name, n) }

// ParseQASM reads an OpenQASM 2.0 subset (QASMBench-style files).
func ParseQASM(name string, r io.Reader) (*Circuit, error) { return circuit.ParseQASM(name, r) }

// LowerToNative rewrites a circuit into the trapped-ion native gate set:
// Mølmer–Sørensen entangling gates plus one-qubit rotations (SWAP becomes
// three MS gates — the identity behind the paper's T≥3 threshold).
func LowerToNative(c *Circuit) *Circuit { return circuit.LowerToNative(c) }

// OptimizeOneQubit cancels and merges adjacent one-qubit gates; two-qubit
// gates and measurements act as barriers.
func OptimizeOneQubit(c *Circuit) *Circuit { return circuit.OptimizeOneQubit(c) }

// Benchmark builds a paper benchmark by its table name, e.g. "Adder_n32",
// "SQRT_n299". It panics on unknown names; use BenchmarkByName for errors.
//
// Generation is deterministic and memoized internally; the returned
// circuit is a private copy the caller may freely mutate.
func Benchmark(name string) *Circuit { return bench.MustByName(name).Clone() }

// BenchmarkByName builds a paper benchmark, returning an error for unknown
// or malformed names. Like Benchmark, it returns a private copy backed by
// the internal memoized cache.
func BenchmarkByName(name string) (*Circuit, error) {
	c, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return c.Clone(), nil
}

// BenchmarkFamilies lists the supported generator families.
func BenchmarkFamilies() []string { return bench.Families() }

// Device is an EML-QCCD machine; Grid is the monolithic baseline lattice.
type (
	Device       = arch.Device
	DeviceConfig = arch.Config
	Grid         = arch.Grid
	Zone         = arch.Zone
	Level        = arch.Level
)

// Zone levels of the EML-QCCD hierarchy.
const (
	LevelStorage   = arch.LevelStorage
	LevelOperation = arch.LevelOperation
	LevelOptical   = arch.LevelOptical
)

// DeviceConfigFor returns the paper's standard configuration sized for n
// qubits (modules in 2×2 blocks, trap capacity 16, 4 optical ports).
func DeviceConfigFor(n int) DeviceConfig { return arch.DefaultConfig(n) }

// NewDevice builds an EML-QCCD device, panicking on invalid configs; use
// NewDeviceErr when the config comes from user input.
func NewDevice(cfg DeviceConfig) *Device { return arch.MustNew(cfg) }

// NewDeviceErr builds an EML-QCCD device.
func NewDeviceErr(cfg DeviceConfig) (*Device, error) { return arch.New(cfg) }

// NewGrid builds a rows×cols baseline QCCD grid.
func NewGrid(rows, cols, capacity int) (*Grid, error) { return arch.NewGrid(rows, cols, capacity) }

// Physics model (Table 1 of the paper).
type PhysicsParams = physics.Params

// DefaultPhysics returns the Table-1 parameters.
func DefaultPhysics() PhysicsParams { return physics.Default() }

// Compiler types.
type (
	// Compiler is a nameable compilation strategy: it schedules a Circuit
	// onto a Target and reports a unified *Result. The four built-ins
	// register as "mussti", "murali", "dai" and "mqt"; out-of-tree
	// compilers join through RegisterCompiler.
	Compiler = core.Compiler
	// Target is a machine a compiler can schedule onto; *Device and *Grid
	// both implement it.
	Target = arch.Target
	// CompileConfig is the one configuration type shared by every
	// compiler: each reads the fields it understands (zero fields mean
	// "this compiler's default") and ignores the rest.
	CompileConfig = core.CompileConfig
	// CompileOption mutates a CompileConfig; see NewCompileConfig.
	CompileOption = core.CompileOption
	// DisplayNamer is optionally implemented by compilers whose
	// human-facing label differs from their registry name; see
	// CompilerLabel.
	DisplayNamer = core.DisplayNamer
	// ConfigDefaulter is optionally implemented by compilers whose
	// paper-default configuration differs from the zero CompileConfig.
	ConfigDefaulter = core.ConfigDefaulter
	// TargetSupporter is optionally implemented by compilers restricted to
	// certain machine shapes (the grid-only baselines implement it), so
	// harnesses — including the experiment runner's -compilers path — can
	// skip an incompatible compiler with a note instead of failing a whole
	// experiment mid-run. Compile must still reject unsupported targets
	// itself; this is advisory.
	TargetSupporter = core.TargetSupporter
	// Options configures a MUSS-TI compilation.
	//
	// Deprecated: Options is the pre-registry name of CompileConfig.
	Options = core.Options
	// ReplacementPolicy selects the conflict-handling victim policy.
	ReplacementPolicy = core.ReplacementPolicy
	// Result is a compilation outcome (metrics + mappings + trace), shared
	// by every compiler behind the Compiler interface.
	Result = core.Result
	// SchedStats counts the scheduler's per-mechanism decisions.
	SchedStats = core.SchedStats
	// Metrics aggregates shuttles, times and fidelity for one run.
	Metrics = sim.Metrics
	// MappingStrategy selects the initial placement.
	MappingStrategy = core.MappingStrategy
)

// RegisterCompiler adds a compiler to the process-wide registry; it errors
// on an empty or already-taken name. Registered compilers resolve through
// LookupCompiler and automatically appear in every experiment, the
// measurement cache and CSV output.
func RegisterCompiler(c Compiler) error { return core.RegisterCompiler(c) }

// LookupCompiler returns the registered compiler with the given name
// ("mussti", "murali", "dai", "mqt", or an out-of-tree registration).
func LookupCompiler(name string) (Compiler, error) { return core.LookupCompiler(name) }

// Compilers returns the registered compilers in registration order (the
// built-ins first: mussti, murali, dai, mqt). The slice is a copy.
func Compilers() []Compiler { return core.Compilers() }

// CompilerNames returns the registered compiler names in registration order.
func CompilerNames() []string { return core.CompilerNames() }

// CompilerLabel returns a compiler's human-facing label — the paper's table
// names ("MUSS-TI", "QCCD-Murali", ...) for the built-ins, Name() otherwise.
func CompilerLabel(c Compiler) string { return core.CompilerLabel(c) }

// SupportsTarget reports whether the compiler declares support for the
// target's machine shape (via TargetSupporter); compilers that don't
// implement it are assumed to support anything and error from Compile if
// not. Use it to pre-filter a compiler set before a sweep.
func SupportsTarget(c Compiler, t Target) bool { return core.SupportsTarget(c, t) }

// NewCompileConfig returns the paper's default configuration with the given
// functional options applied, e.g.
// NewCompileConfig(WithLookAhead(6), WithTrace()).
func NewCompileConfig(opts ...CompileOption) *CompileConfig { return core.NewCompileConfig(opts...) }

// Functional options for NewCompileConfig.
var (
	// WithMapping selects the initial-placement strategy.
	WithMapping = core.WithMapping
	// WithSwapInsertion toggles the §3.3 inter-module SWAP insertion.
	WithSwapInsertion = core.WithSwapInsertion
	// WithLookAhead sets the look-ahead window k in DAG layers.
	WithLookAhead = core.WithLookAhead
	// WithSwapThreshold sets the SWAP-insertion weight threshold T.
	WithSwapThreshold = core.WithSwapThreshold
	// WithPhysics sets the physics model.
	WithPhysics = core.WithPhysics
	// WithTrace enables op-level trace recording.
	WithTrace = core.WithTrace
	// WithReplacement selects the conflict-handling victim policy.
	WithReplacement = core.WithReplacement
	// WithObserver attaches per-step progress callbacks.
	WithObserver = core.WithObserver
	// WithRoutingLookAhead toggles the routing attraction term.
	WithRoutingLookAhead = core.WithRoutingLookAhead
)

// Initial-mapping strategies (§3.4 of the paper).
const (
	MappingTrivial = core.MappingTrivial
	MappingSABRE   = core.MappingSABRE
)

// Replacement policies for the conflict-handling ablation; the default
// zero value is the paper's LRU scheduler.
const (
	ReplaceLRU    = core.ReplaceLRU
	ReplaceFIFO   = core.ReplaceFIFO
	ReplaceRandom = core.ReplaceRandom
	ReplaceBelady = core.ReplaceBelady
)

// DefaultOptions is the paper's headline configuration: SABRE mapping plus
// SWAP insertion with k=8 and T=4.
func DefaultOptions() Options { return core.DefaultOptions() }

// Compile schedules a circuit onto an EML-QCCD device with MUSS-TI.
//
// Deprecated: resolve the compiler through the registry instead —
// LookupCompiler("mussti") then Compile(ctx, c, dev, cfg). This wrapper's
// behaviour is unchanged.
func Compile(c *Circuit, d *Device, opts Options) (*Result, error) {
	return core.Compile(c, d, opts)
}

// CompileContext is Compile with cooperative cancellation: the scheduling
// loops check ctx at every frontier step, so a cancelled or expired context
// aborts a long compile within one scheduler step and surfaces ctx.Err().
//
// Deprecated: resolve the compiler through the registry instead —
// LookupCompiler("mussti") then Compile(ctx, c, dev, cfg). This wrapper's
// behaviour is unchanged.
func CompileContext(ctx context.Context, c *Circuit, d *Device, opts Options) (*Result, error) {
	return core.CompileContext(ctx, c, d, opts)
}

// Observer receives per-step progress callbacks (gates scheduled, shuttles,
// evictions, inserted SWAPs) from a running compilation — MUSS-TI or
// baseline. Attach one via Options.Observer / BaselineOptions.Observer; it
// never changes the schedule.
type Observer = core.Observer

// Batch compilation: many (target, config) variants of one circuit share
// the per-circuit preparation.
type (
	// BatchVariant is one (target, config) pair of a CompileBatch; a nil
	// Config means the paper's defaults, as with Compiler.Compile.
	BatchVariant = core.BatchVariant
	// BatchCompiler is optionally implemented by compilers that support
	// batch compilation; the registry's "mussti" entry implements it.
	BatchCompiler = core.BatchCompiler
)

// CompileBatch compiles one circuit against many (target, config) variants
// with MUSS-TI, building the per-circuit preparation (dependency DAG,
// per-qubit gate lists, next-use tables) once and compiling the variants
// one after another on the calling goroutine. results[i] corresponds to
// variants[i] and is byte-identical to a standalone Compile of that variant
// (modulo the wall-clock CompileTime):
//
//	variants := []mussti.BatchVariant{
//		{Target: dev, Config: nil},                                   // paper defaults
//		{Target: dev, Config: mussti.NewCompileConfig(mussti.WithLookAhead(4))},
//	}
//	results, err := mussti.CompileBatch(ctx, c, variants)
func CompileBatch(ctx context.Context, c *Circuit, variants []BatchVariant) ([]*Result, error) {
	return core.CompileBatch(ctx, c, variants)
}

// ScheduleOp is one timed entry of a recorded schedule.
type ScheduleOp = sim.Op

// VerifySchedule independently re-checks a recorded schedule against the
// circuit and device: zone occupancy, gate legality, per-qubit program
// order, inserted-SWAP bookkeeping and timing. It shares no state with the
// execution engine, so scheduler bugs cannot hide behind their own
// bookkeeping.
func VerifySchedule(c *Circuit, d *Device, initial []int, trace []ScheduleOp) error {
	return sim.VerifySchedule(c, sim.ZonesOfDevice(d), initial, trace)
}

// WriteScheduleJSON serialises a recorded schedule as JSON for external
// tooling; ReadScheduleJSON loads it back.
func WriteScheduleJSON(w io.Writer, numQubits int, trace []ScheduleOp) error {
	return sim.WriteScheduleJSON(w, numQubits, trace)
}

// ReadScheduleJSON loads a schedule written by WriteScheduleJSON.
func ReadScheduleJSON(r io.Reader) (numQubits int, trace []ScheduleOp, err error) {
	return sim.ReadScheduleJSON(r)
}

// Baseline compilers (the paper's comparison points).
type (
	BaselineAlgorithm = baseline.Algorithm
	// BaselineOptions configures a baseline run.
	//
	// Deprecated: the registry path takes the shared CompileConfig; the
	// baselines read its Params, LookAhead, Trace and Observer fields.
	BaselineOptions = baseline.Options
	// BaselineResult is the outcome of a baseline compilation — now the
	// same type as Result, so harnesses handle one result shape.
	BaselineResult = baseline.Result
)

// Baseline algorithm identifiers.
const (
	BaselineMurali = baseline.Murali // ISCA 2020 greedy QCCD compiler [55]
	BaselineDai    = baseline.Dai    // advanced shuttle strategies [13]
	BaselineMQT    = baseline.MQT    // MQT dedicated-zone shuttling [70]
)

// CompileBaseline schedules a circuit onto a monolithic grid with one of
// the baseline compilers.
//
// Deprecated: resolve the compiler through the registry instead —
// LookupCompiler("murali"/"dai"/"mqt") then Compile(ctx, c, grid, cfg).
// This wrapper's behaviour is unchanged.
func CompileBaseline(algo BaselineAlgorithm, c *Circuit, g *Grid, opts BaselineOptions) (*BaselineResult, error) {
	return baseline.Compile(algo, c, g, opts)
}

// CompileBaselineContext is CompileBaseline with cooperative cancellation,
// mirroring CompileContext.
//
// Deprecated: resolve the compiler through the registry instead —
// LookupCompiler("murali"/"dai"/"mqt") then Compile(ctx, c, grid, cfg).
// This wrapper's behaviour is unchanged.
func CompileBaselineContext(ctx context.Context, algo BaselineAlgorithm, c *Circuit, g *Grid, opts BaselineOptions) (*BaselineResult, error) {
	return baseline.CompileContext(ctx, algo, c, g, opts)
}

// Experiment harness: regenerate the paper's tables and figures.
type ExperimentInfo = eval.Experiment

// ExperimentList returns the paper's experiments in order, followed by the
// extension studies (replacement-policy ablation, optical-port sweep).
func ExperimentList() []ExperimentInfo { return eval.AllExperiments() }

// RunExperiment runs one experiment by ID ("table2", "fig6"..."fig13")
// sequentially and returns its rendered text.
func RunExperiment(id string) (string, error) {
	e, err := eval.ByID(id)
	if err != nil {
		return "", err
	}
	return e.Run()
}

// Runner fans independent experiment measurements out over a bounded worker
// pool. One Runner may serve many concurrent experiments; they share its
// concurrency budget.
type Runner = eval.Runner

// NewRunner returns a measurement runner with the given worker count;
// workers <= 0 means GOMAXPROCS. A nil *Runner means strictly sequential
// execution wherever one is accepted.
func NewRunner(workers int) *Runner { return eval.NewRunner(workers) }

// RunExperimentContext runs one experiment by ID on the given runner (nil =
// sequential), honouring ctx cancellation. The worker count never affects
// the rendered tables: deterministic cells are reassembled in paper order,
// and the experiments whose cells are wall-clock compile times (fig10,
// fig11) always run their measurements serially.
func RunExperimentContext(ctx context.Context, id string, r *Runner) (string, error) {
	e, err := eval.ByID(id)
	if err != nil {
		return "", err
	}
	return e.RunContext(ctx, r)
}

// Measurement is one structured (application, compiler, device) data point
// of the experiment harness.
type Measurement = eval.Measurement

// RunExperimentCollect is RunExperimentContext, additionally returning the
// experiment's structured Measurement rows in paper order — the data behind
// the rendered text, for CSV export and other sinks.
func RunExperimentCollect(ctx context.Context, id string, r *Runner) (string, []Measurement, error) {
	e, err := eval.ByID(id)
	if err != nil {
		return "", nil, err
	}
	return e.CollectContext(ctx, r)
}

// RunExperimentWith is RunExperimentCollect restricted to the given
// registered compiler names: the experiment measures (and renders columns or
// sections for) only those compilers, in order — including out-of-tree
// registrations. An empty list means the experiment's default compiler set,
// which reproduces the paper byte-for-byte.
func RunExperimentWith(ctx context.Context, id string, r *Runner, compilers []string) (string, []Measurement, error) {
	e, err := eval.ByID(id)
	if err != nil {
		return "", nil, err
	}
	return e.CollectWith(ctx, r, compilers)
}

// WriteMeasurementsCSV writes measurements as CSV with a header row, the
// interchange format for plotting the figures outside Go.
func WriteMeasurementsCSV(w io.Writer, ms []Measurement) error {
	return eval.WriteMeasurementsCSV(w, ms)
}

// Distributed execution: a Runner's jobs can execute in spawned worker
// processes (on this machine or, via a remote shell in the worker command,
// any other) instead of in-process goroutines. The Runner keeps every
// scheduling responsibility, so distributed output is byte-identical to
// sequential output. See cmd/experiments -dist / -worker / -cachedir for
// the ready-made CLI wiring.
type (
	// Coordinator owns a fleet of spawned worker processes and dispatches
	// experiment jobs to them; it implements RemoteExecutor, so hand it to
	// Runner.SetRemote. Workers that die mid-job are replaced and their
	// jobs retried.
	Coordinator = dist.Coordinator
	// CoordinatorOptions tune fleet behaviour (worker stderr destination,
	// environment, retry bound, pipeline window, launcher, heartbeats);
	// the zero value is ready to use.
	CoordinatorOptions = dist.CoordinatorOptions
	// CoordinatorStats is a snapshot of a coordinator's dispatch counters
	// (jobs dispatched, coalesced batches, retries, worker deaths).
	CoordinatorStats = dist.CoordinatorStats
	// WorkerLauncher starts the processes a Coordinator manages; plug a
	// custom implementation into CoordinatorOptions.Launcher to move the
	// fleet off-machine.
	WorkerLauncher = dist.WorkerLauncher
	// WorkerHandle is one launched worker's protocol streams and
	// lifecycle, as returned by a WorkerLauncher.
	WorkerHandle = dist.WorkerHandle
	// LocalLauncher runs workers as directly spawned child processes —
	// the default launcher.
	LocalLauncher = dist.LocalLauncher
	// CommandLauncher wraps the worker command in an exec-style prefix
	// ("ssh -o BatchMode=yes build-02", a container runtime, nice) so the
	// fleet runs wherever the prefix lands it.
	CommandLauncher = dist.CommandLauncher
	// RemoteExecutor dispatches one job to an external execution
	// substrate; Runner.SetRemote accepts any implementation.
	RemoteExecutor = eval.RemoteExecutor
	// PipelinedExecutor is a RemoteExecutor whose Capacity reports how
	// many jobs it absorbs in flight; Runner.SetRemote widens its pool to
	// match.
	PipelinedExecutor = eval.PipelinedExecutor
	// DiskCache is an on-disk measurement store shared by any number of
	// processes; attach one via Runner.SetDiskCache so repeated runs and
	// whole worker fleets compile each point once, ever.
	DiskCache = eval.DiskCache
	// CompileSpec describes one measurement point through the compiler
	// registry — the unit the distributed wire protocol ships.
	CompileSpec = eval.CompileSpec
	// EvalJob is one independent measurement job of the experiment
	// harness.
	EvalJob = eval.Job
)

// NewCoordinator spawns n worker processes running argv (typically the
// host binary itself with a -worker style flag) and returns the
// coordinator managing them; pass it to Runner.SetRemote. Call Close to
// reap the fleet.
func NewCoordinator(n int, argv []string, opts *CoordinatorOptions) (*Coordinator, error) {
	return dist.NewCoordinator(n, argv, opts)
}

// ServeWorker runs the worker side of the distributed protocol: it reads
// job envelopes from r (the coordinator's pipe), executes them through
// runner.RunJob — cancellation, memoization and any attached disk cache
// intact — and writes measurement envelopes to w. It returns on r's EOF.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, runner *Runner) error {
	return dist.ServeWorker(ctx, r, w, runner)
}

// NewDiskCache opens (creating if needed) a shared on-disk measurement
// cache directory; attach it with Runner.SetDiskCache.
func NewDiskCache(dir string) (*DiskCache, error) { return eval.NewDiskCache(dir) }

// Compilation as a service: the compiler behind an HTTP+JSON endpoint. A
// Service wraps a Runner, so every harness layer carries over — concurrent
// identical requests coalesce through the measurement memo, results persist
// to an attached DiskCache, and a Coordinator fleet compiles remote when the
// Runner has one set. See cmd/musstid for the ready-made server binary.
type (
	// Service is the HTTP compilation service; it implements http.Handler.
	// Endpoints: POST /v1/compile (built-in benchmark or inline QASM,
	// optionally streaming progress events), GET /v1/compilers,
	// GET /v1/benchmarks, GET /metrics, GET /healthz.
	Service = service.Server
	// ServiceOptions configures a Service: the Runner (required), an
	// optional Coordinator for fleet metrics, admission bounds and the
	// progress streaming cadence.
	ServiceOptions = service.Options
	// ServiceMetrics is the GET /metrics response: request and cache
	// counters, compile-latency quantiles, admission gauges and fleet
	// health.
	ServiceMetrics = service.MetricsSnapshot
)

// NewService builds a compilation service over opts.Runner. The service
// installs its metrics collector as the runner's job hook, so the runner
// must not have another SetJobHook consumer.
func NewService(opts ServiceOptions) (*Service, error) { return service.New(opts) }
