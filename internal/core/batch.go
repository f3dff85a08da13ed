package core

import (
	"context"
	"fmt"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit"
)

// BatchVariant is one (target, config) pair of a CompileBatch. A nil Config
// means the paper's headline configuration (DefaultOptions), matching the
// Compiler interface's nil-config contract.
type BatchVariant struct {
	Target arch.Target
	Config *CompileConfig
}

// BatchCompiler is optionally implemented by compilers that can compile many
// (target, config) variants of one circuit while sharing the per-circuit
// preparation, so harnesses sweeping configurations over a fixed circuit
// (eval's Runner) amortise the O(g) prep without knowing how. results[i]
// must correspond to variants[i] and be byte-identical to a standalone
// Compile of that variant.
type BatchCompiler interface {
	Compiler
	CompileBatch(ctx context.Context, c *circuit.Circuit, variants []BatchVariant) ([]*Result, error)
}

// CompileBatch compiles one circuit against many (target, config) variants,
// building the per-circuit preparation — dependency DAG, per-qubit gate
// lists, next-use tables — once and replaying it for each variant via
// Graph.Reset, exactly like back-to-back Compile calls. Variants compile one
// after another on the calling goroutine; callers wanting concurrency run
// several batches (eval's Runner gives each batch unit one pool slot).
//
// results[i] corresponds to variants[i] and is byte-identical to what
// Compile(c, variants[i]...) returns (modulo the wall-clock CompileTime,
// which covers the variant's scheduling only — the shared prep build is
// attributed to no one). Every variant is validated before any scheduling
// starts, so a bad variant fails fast with its index; otherwise the first
// variant to fail, or the context's error, aborts the batch.
func CompileBatch(ctx context.Context, c *circuit.Circuit, variants []BatchVariant) ([]*Result, error) {
	if len(variants) == 0 {
		return nil, nil
	}
	devs := make([]*arch.Device, len(variants))
	cfgs := make([]Options, len(variants))
	for i, v := range variants {
		d, err := deviceFor(v.Target)
		if err != nil {
			return nil, fmt.Errorf("core: batch variant %d: %w", i, err)
		}
		opts := DefaultOptions()
		if v.Config != nil {
			opts = *v.Config
		}
		if c.NumQubits > d.Capacity() {
			return nil, fmt.Errorf("core: batch variant %d: circuit %q needs %d qubits, device holds %d",
				i, c.Name, c.NumQubits, d.Capacity())
		}
		devs[i], cfgs[i] = d, opts.withDefaults()
	}
	p := newPrep(c)
	results := make([]*Result, len(variants))
	for i := range variants {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now() //mussti:allow=determinism CompileTime is reporting metadata, never schedule input
		res, err := compileWithPrep(ctx, p, devs[i], cfgs[i])
		if err != nil {
			return nil, err
		}
		res.CompileTime = time.Since(start) //mussti:allow=determinism CompileTime is reporting metadata, never schedule input
		results[i] = res
	}
	return results, nil
}

// deviceFor resolves a Target to the EML-QCCD device MUSS-TI schedules on:
// a *Device directly, or a *Grid through the zone/module adapter.
func deviceFor(t arch.Target) (*arch.Device, error) {
	switch tt := t.(type) {
	case *arch.Device:
		return tt, nil
	case *arch.Grid:
		return tt.Device(), nil
	}
	return nil, fmt.Errorf("core: mussti cannot target %T (want *arch.Device or *arch.Grid)", t)
}

// CompileBatch implements BatchCompiler for the registry's "mussti" entry.
func (musstiCompiler) CompileBatch(ctx context.Context, c *circuit.Circuit, variants []BatchVariant) ([]*Result, error) {
	return CompileBatch(ctx, c, variants)
}
