// Package core implements the MUSS-TI compiler (§3 of the paper): the
// multi-level shuttle scheduler for EML-QCCD devices.
//
// The scheduling loop mirrors multi-level memory management. Qubits are
// tasks; the storage zone is external storage (level 0), the operation zone
// main memory (level 1), the optical zone the CPU (level 2). A two-qubit
// gate needs its ions delivered to the right zone on time; misplaced
// partners are routed in, and when a target zone is full the least recently
// used resident is evicted one level down — the trap-world analogue of a
// page fault.
//
// Compile is the entry point; CompileContext adds cooperative cancellation
// (checked at every scheduler step) and per-step progress observation via
// the Observer interface, so long compiles can be interrupted and watched
// without forking the run loop.
package core

import (
	"context"
	"fmt"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/sim"
)

// SchedStats counts the scheduler's decisions over one run — how often
// each mechanism of §3.2 fired. They explain *why* a schedule cost what it
// did and feed the ablation analyses.
type SchedStats struct {
	// ExecutableFast counts frontier gates executed with no routing
	// (the "prioritize executable gates" fast path).
	ExecutableFast int
	// Routed counts gates that needed qubit routing.
	Routed int
	// Evictions counts conflict-handling evictions (page faults).
	Evictions int
	// SwapsConsidered and SwapsInserted count §3.3 decisions.
	SwapsConsidered int
	SwapsInserted   int
}

// Result is the outcome of one compilation run.
type Result struct {
	// Metrics are the executed schedule's simulation metrics.
	Metrics sim.Metrics
	// Stats counts the scheduler's decisions.
	Stats SchedStats
	// CompileTime is the wall-clock scheduling cost (the paper's Fig. 10
	// metric), excluding circuit generation.
	CompileTime time.Duration
	// InitialMapping and FinalMapping give each qubit's zone before and
	// after execution.
	InitialMapping []int
	FinalMapping   []int
	// Trace is the op-level schedule when Options.Trace was set.
	Trace []sim.Op
	// Report is the per-zone activity report when Options.Trace was set.
	Report *sim.Report
}

// Compile schedules circuit c onto device d with the given options and
// returns the executed schedule's metrics. It errors when the device cannot
// hold the circuit or an internal invariant breaks. It is CompileContext
// with a background context.
func Compile(c *circuit.Circuit, d *arch.Device, opts Options) (*Result, error) {
	return CompileContext(context.Background(), c, d, opts)
}

// CompileContext is Compile with cooperative cancellation: the scheduling
// loops (including the SABRE probe passes) check ctx at every frontier
// step, so a cancelled or expired context aborts a long compile within one
// scheduler step and surfaces ctx.Err().
//
// A compile runs entirely on the calling goroutine: the SABRE probes and
// the candidate production passes execute one after another over one prep,
// so Observer callbacks arrive in pass order and concurrency is the
// caller's business (eval's Runner holds one pool slot per compile).
func CompileContext(ctx context.Context, c *circuit.Circuit, d *arch.Device, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if c.NumQubits > d.Capacity() {
		return nil, fmt.Errorf("core: circuit %q needs %d qubits, device holds %d",
			c.Name, c.NumQubits, d.Capacity())
	}
	start := time.Now() //mussti:allow=determinism CompileTime is reporting metadata, never schedule input

	// One prep serves every pass over c in this compile — the SABRE forward
	// probe and each candidate production run — via Graph.Reset; only the
	// reversed probe circuit needs its own build.
	res, err := compileWithPrep(ctx, newPrep(c), d, opts)
	if err != nil {
		return nil, err
	}
	res.CompileTime = time.Since(start) //mussti:allow=determinism CompileTime is reporting metadata, never schedule input
	return res, nil
}

// compileWithPrep runs the candidate loop over an existing prep. opts must
// already be withDefaults-normalised and the circuit known to fit d (the
// callers — CompileContext and CompileBatch — check capacity). CompileTime
// is left zero for the caller to stamp.
func compileWithPrep(ctx context.Context, p *prep, d *arch.Device, opts Options) (*Result, error) {
	candidates, err := candidateMappings(ctx, p, d, opts)
	if err != nil {
		return nil, err
	}
	var best *Result
	for _, initial := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := runCandidate(ctx, p, d, opts, initial)
		if err != nil {
			return nil, err
		}
		// Candidates are offered in index order and a later one wins only
		// by strictly higher fidelity, so every tie-break is deterministic.
		if best == nil || res.Metrics.Fidelity.Log() > best.Metrics.Fidelity.Log() {
			best = res
		}
	}
	return best, nil
}

// runCandidate executes one production pass from the given initial mapping
// and packages the Result.
func runCandidate(ctx context.Context, p *prep, d *arch.Device, opts Options, initial []int) (*Result, error) {
	s, err := newSchedulerWith(ctx, p, d, opts, initial)
	if err != nil {
		return nil, err
	}
	if opts.Trace {
		s.eng.EnableTrace()
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	res := &Result{
		Metrics:        s.eng.Metrics(),
		Stats:          s.stats,
		InitialMapping: initial,
		FinalMapping:   s.mappingSnapshot(),
		Trace:          s.eng.Trace(),
	}
	if opts.Trace {
		rep := s.eng.BuildReport()
		res.Report = &rep
	}
	return res, nil
}

// candidateMappings returns the initial mappings the compiler will try.
// SABRE evaluates both the two-fold-search mapping and the trivial one and
// Compile keeps whichever schedule reaches the higher fidelity: the search
// is a heuristic, and falling back costs only compile time (which the
// Fig. 11 trade-off accounts for).
func candidateMappings(ctx context.Context, p *prep, d *arch.Device, opts Options) ([][]int, error) {
	switch opts.Mapping {
	case MappingTrivial:
		m, err := trivialMapping(p.c.NumQubits, d)
		if err != nil {
			return nil, err
		}
		return [][]int{m}, nil
	case MappingSABRE:
		triv, err := trivialMapping(p.c.NumQubits, d)
		if err != nil {
			return nil, err
		}
		sab, err := sabreMapping(ctx, p, d, opts)
		if err != nil {
			return nil, err
		}
		return [][]int{sab, triv}, nil
	default:
		return nil, fmt.Errorf("core: unknown mapping strategy %d", opts.Mapping)
	}
}
