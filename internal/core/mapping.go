package core

import (
	"context"
	"fmt"

	"mussti/internal/arch"
	"mussti/internal/circuit"
)

// trivialMapping places qubits sequentially into zones ordered by level
// from highest to lowest ("zones with higher levels typically offer
// superior functionality"): the optical zones of every module fill first,
// then the operation zones, then storage, always respecting zone
// capacities and per-module routing budgets. Consecutive qubits therefore
// land in contiguous blocks of one gate-capable zone, and the scarce
// storage tier is only used once the gate-capable tiers are exhausted —
// the memory-hierarchy picture of §3 (working set high, overflow low).
func trivialMapping(n int, d *arch.Device) ([]int, error) {
	mapping := make([]int, n)
	zoneLoad := make([]int, len(d.Zones))
	moduleLoad := make([]int, len(d.Modules))
	q := 0
	for _, level := range arch.LevelsDescending() {
		for m := range d.Modules {
			budget := moduleBudget(d, m)
			for _, z := range d.ZonesByLevel(m, level) {
				for q < n && zoneLoad[z] < d.Zones[z].Capacity && moduleLoad[m] < budget {
					mapping[q] = z
					zoneLoad[z]++
					moduleLoad[m]++
					q++
				}
			}
		}
	}
	if q < n {
		return nil, fmt.Errorf("core: device cannot place %d qubits with routing slack (capacity %d)", n, d.Capacity())
	}
	return mapping, nil
}

// moduleBudget caps how many ions the initial mapping loads into a module:
// the per-module MaxIons, and never more than 3/4 of the module's physical
// slots — a fully packed module leaves the scheduler no room to shuttle, the
// trap-world equivalent of thrashing a memory with no free pages.
func moduleBudget(d *arch.Device, m int) int {
	slots := 0
	for _, z := range d.Modules[m].Zones {
		slots += d.Zones[z].Capacity
	}
	budget := slots * 3 / 4
	if mx := d.Modules[m].MaxIons; mx < budget {
		budget = mx
	}
	return budget
}

// reverseProbe is the second half of the two-fold search of §3.4: execute
// the *reversed* circuit from π′, the final placement of a forward pass from
// the trivial mapping, and return its final placement π″ as the SABRE
// production pass's initial mapping. The reverse pass pre-loads qubits near
// their earliest interactions, the "memory pre-loading" analogy of the
// paper. compileWithPrep's trivial production pass is the forward pass.
//
// The probe only derives a placement, so it records no trace and reports
// nothing to the Observer; SWAP insertion stays as configured, so π″
// reflects how the production pass will actually behave. The reversed
// circuit — a different gate order, hence a different DAG — gets its prep
// from the per-circuit cache in prepcache.go, so repeated compiles of one
// circuit reverse it once. forward is only read, so the caller may pass a
// Result's FinalMapping as it is.
func reverseProbe(ctx context.Context, c *circuit.Circuit, d *arch.Device, opts CompileConfig, forward []int) ([]int, error) {
	opts.Trace = false
	opts.Observer = nil
	rprep, pool := acquireReversePrep(c)
	defer pool.Put(rprep)
	s, err := newSchedulerWith(ctx, rprep, d, opts, forward)
	if err == nil {
		err = s.run()
	}
	if err != nil {
		return nil, fmt.Errorf("core: sabre reverse pass: %w", err)
	}
	return s.mappingSnapshot(), nil
}
