package core

import (
	"context"
	"fmt"

	"mussti/internal/arch"
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

// sabreMapping is the two-fold search of §3.4: execute the circuit from a
// trivial mapping, take the final placement π′, execute the *reversed*
// circuit from π′ to obtain π″, and use π″ as the production run's initial
// mapping. The reverse pass pre-loads qubits near their earliest
// interactions, the "memory pre-loading" analogy of the paper.
//
// The forward probe replays the caller's prep (the production runs reuse
// it again afterwards); the reversed circuit — a different gate order,
// hence a different DAG — gets its prep from the per-circuit cache in
// prepcache.go, so repeated compiles of one circuit reverse it once.
func sabreMapping(ctx context.Context, p *prep, d *arch.Device, opts Options) ([]int, error) {
	probe := opts
	probe.Mapping = MappingTrivial
	probe.Trace = false
	// Probe passes exist only to derive a placement; progress ticks from
	// them would interleave confusingly with the production run's.
	probe.Observer = nil
	// The probe passes only need placement dynamics, not SWAP insertion —
	// but keeping insertion identical to the production run makes the
	// final mapping consistent with how the run will actually behave.
	trivial, err := trivialMapping(p.c.NumQubits, d)
	if err != nil {
		return nil, err
	}
	forward, err := runForMapping(ctx, p, d, probe, trivial)
	if err != nil {
		return nil, fmt.Errorf("core: sabre forward pass: %w", err)
	}
	rprep, pool := acquireReversePrep(p.c)
	backward, err := runForMapping(ctx, rprep, d, probe, forward)
	pool.Put(rprep)
	if err != nil {
		return nil, fmt.Errorf("core: sabre reverse pass: %w", err)
	}
	return backward, nil
}

// runForMapping executes one scheduling pass and returns the final mapping.
func runForMapping(ctx context.Context, p *prep, d *arch.Device, opts Options, initial []int) ([]int, error) {
	s, err := newSchedulerWith(ctx, p, d, opts, initial)
	if err != nil {
		return nil, err
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.mappingSnapshot(), nil
}
