package eval

import (
	"context"
	"fmt"

	"mussti/internal/circuit/bench"
	"mussti/internal/core"
)

// This file teaches the Runner to exploit core's batch compilation. Most
// experiment plans sweep many configurations or targets over the same
// benchmark circuit; compiled job by job, every one of those measurements
// rebuilds an identical per-circuit prep (DAG, per-qubit lists, next-use
// tables). planUnits groups such jobs into units, and runBatchUnit sends a
// unit through BatchCompiler.CompileBatch behind the existing memo and
// disk-cache seam (Memo.DoBatch), so cached members still skip compilation
// and singleflight coalescing still holds across concurrent experiments.
// Output is unaffected by the partition: results land by job index and the
// rendered tables stay byte-identical.

// planUnits partitions the job list into execution units. Jobs compiling
// the same circuit with the same batch-capable compiler form one unit and
// go through CompileBatch — one shared prep, one pool slot — while
// everything else stays a singleton. Units are ordered by first member and
// results land by job index, so the partition never affects output, only
// the work performed. Batching is skipped entirely with a remote executor
// (jobs must ship individually) and when disabled via DisableBatching.
func (r *Runner) planUnits(jobs []Job) [][]int {
	groupable := r.batching && r.remote == nil && len(jobs) > 1
	keys := make([]string, len(jobs))
	if groupable {
		for i, j := range jobs {
			s := j.Spec
			comp, err := core.LookupCompiler(s.Compiler)
			if err != nil {
				continue
			}
			if _, ok := comp.(core.BatchCompiler); !ok {
				continue
			}
			if r.memo != nil {
				if _, ok := s.CacheKey(); !ok {
					continue // uncacheable (traced) jobs keep the per-job path
				}
			}
			keys[i] = s.Compiler + "\x00" + s.App
		}
	}
	units := make([][]int, 0, len(jobs))
	at := make(map[string]int, len(jobs))
	for i := range jobs {
		k := keys[i]
		if k == "" {
			units = append(units, []int{i})
			continue
		}
		if u, ok := at[k]; ok {
			units[u] = append(units[u], i)
		} else {
			at[k] = len(units)
			units = append(units, []int{i})
		}
	}
	return units
}

// runBatchUnit executes one multi-job unit through CompileBatch with the
// runner's cache and progress layers applied, writing each member's
// measurement to ms by job index. On failure the whole unit aborts and no
// member's measurement is written.
func (r *Runner) runBatchUnit(ctx context.Context, jobs []Job, unit []int, ms []Measurement) error {
	specs := make([]CompileSpec, len(unit))
	for k, i := range unit {
		specs[k] = jobs[i].Spec
	}
	comp, err := core.LookupCompiler(specs[0].Compiler)
	if err != nil {
		return err
	}
	bc, ok := comp.(core.BatchCompiler)
	if !ok {
		return fmt.Errorf("eval: compiler %q grouped into a batch unit but lacks CompileBatch", specs[0].Compiler)
	}
	c, err := bench.ByName(specs[0].App)
	if err != nil {
		return err
	}
	progs := make([]*jobProgress, len(unit))
	variants := make([]core.BatchVariant, len(unit))
	for k := range unit {
		target, err := specs[k].target(c.NumQubits)
		if err != nil {
			return err
		}
		cfg := specs[k].config(comp)
		if r.progress != nil {
			progs[k] = r.progress.job(jobs[unit[k]].label())
			cfg.Observer = progs[k]
		}
		variants[k] = core.BatchVariant{Target: target, Config: &cfg}
	}

	compiled := make([]bool, len(unit))
	compute := func(need []int) ([]Measurement, error) {
		sub := make([]core.BatchVariant, len(need))
		for x, k := range need {
			sub[x] = variants[k]
			compiled[k] = true
		}
		results, err := bc.CompileBatch(ctx, c, sub)
		if err != nil {
			return nil, fmt.Errorf("eval: %s/%s batch: %w", specs[0].App, specs[0].Compiler, err)
		}
		out := make([]Measurement, len(need))
		for x, k := range need {
			out[x] = MeasurementOf(specs[k].App, comp, c, results[x])
		}
		return out, nil
	}

	var got []Measurement
	if r.memo != nil {
		keys := make([]string, len(unit))
		for k, s := range specs {
			key, ok := s.CacheKey()
			if !ok {
				return fmt.Errorf("eval: uncacheable spec %s/%s grouped into a memoized batch unit", s.App, s.Compiler)
			}
			keys[k] = key
		}
		one := func(k int) (Measurement, error) {
			compiled[k] = true
			results, err := bc.CompileBatch(ctx, c, variants[k:k+1])
			if err != nil {
				return Measurement{}, fmt.Errorf("eval: %s/%s: %w", specs[k].App, specs[k].Compiler, err)
			}
			return MeasurementOf(specs[k].App, comp, c, results[0]), nil
		}
		got, err = r.memo.DoBatch(ctx, keys, compute, one)
	} else {
		all := make([]int, len(unit))
		for k := range all {
			all[k] = k
		}
		got, err = compute(all)
	}
	if err != nil {
		return err
	}
	for k, i := range unit {
		ms[i] = got[k]
		if progs[k] != nil {
			progs[k].finish(!compiled[k])
		}
	}
	return nil
}
