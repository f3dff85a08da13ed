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
// The registry's "mussti" Compiler and CompileBatch are the entry points.
// Both honour cooperative cancellation (checked at every scheduler step) and
// report per-step progress through CompileConfig.Observer, so long compiles
// can be interrupted and watched without forking the run loop.
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
	// Trace is the op-level schedule when CompileConfig.Trace was set.
	Trace []sim.Op
	// Report is the per-zone activity report when CompileConfig.Trace was set.
	Report *sim.Report
}

// compile schedules circuit c onto device d and returns the executed
// schedule's metrics; musstiCompiler.Compile documents the pass order and
// cancellation. It errors when the device cannot hold the circuit or an
// internal invariant breaks.
func compile(ctx context.Context, c *circuit.Circuit, d *arch.Device, opts CompileConfig) (*Result, error) {
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

// compileWithPrep runs the production passes over an existing prep. opts
// must already be withDefaults-normalised and the circuit known to fit d
// (the callers — compile and CompileBatch — check capacity).
// CompileTime is left zero for the caller to stamp.
//
// Under MappingSABRE the trivial candidate's production pass runs first:
// it starts from the same mapping as the §3.4 forward probe and the
// scheduler reads no option the two would set differently, so its final
// mapping is the probe's. The SABRE candidate wins unless the trivial one
// reaches strictly higher fidelity: the search is a heuristic, and falling
// back costs only compile time (which the Fig. 11 trade-off accounts for).
func compileWithPrep(ctx context.Context, p *prep, d *arch.Device, opts CompileConfig) (*Result, error) {
	if opts.Mapping != MappingTrivial && opts.Mapping != MappingSABRE {
		return nil, fmt.Errorf("core: unknown mapping strategy %d", opts.Mapping)
	}
	initial, err := trivialMapping(p.c.NumQubits, d)
	if err != nil {
		return nil, err
	}
	trivial, err := runCandidate(ctx, p, d, opts, initial)
	if err != nil {
		return nil, err
	}
	if opts.Mapping == MappingTrivial {
		return trivial, nil
	}
	initial, err = reverseProbe(ctx, p.c, d, opts, trivial.FinalMapping)
	if err != nil {
		return nil, err
	}
	sabre, err := runCandidate(ctx, p, d, opts, initial)
	if err != nil {
		return nil, err
	}
	if trivial.Metrics.Fidelity.Log() > sabre.Metrics.Fidelity.Log() {
		return trivial, nil
	}
	return sabre, nil
}

// runCandidate executes one production pass from the given initial mapping
// and packages the Result.
func runCandidate(ctx context.Context, p *prep, d *arch.Device, opts CompileConfig, initial []int) (*Result, error) {
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
