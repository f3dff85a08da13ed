// Package sim executes compiler-emitted operation sequences against a
// zone-occupancy model, enforcing hardware legality and accumulating the
// paper's three metrics: shuttle count, execution-time estimate and
// fidelity (§4 "Metrics").
//
// The engine is architecture-agnostic: both the EML-QCCD device and the
// monolithic baseline grid present themselves as a flat list of zones with
// capacity, gate capability, an optical flag and a module tag. Compilers
// drive the engine imperatively (Move, Gate2, Fiber, ...); the engine
// maintains chain order inside each trap — shuttling is only legal at chain
// edges, so an interior ion pays chain-Swap operations to reach an edge
// first, exactly the constraint Fig. 4 of the paper highlights.
//
// Timing uses per-resource availability: every operation starts when the
// zones and qubits it touches are free and occupies them for its duration.
// The makespan of the busiest resource is the execution-time estimate;
// independent zones overlap freely, which is how the paper's simulator
// credits parallelism across traps.
package sim

import (
	"fmt"
	"math"

	"mussti/internal/physics"
)

// ZoneInfo describes one trap segment to the engine.
type ZoneInfo struct {
	// Capacity is the maximum chain length.
	Capacity int
	// GateCapable marks zones where two-qubit MS gates may run
	// (operation + optical zones on EML; every trap on the grid).
	GateCapable bool
	// Optical marks fiber-entanglement-capable zones.
	Optical bool
	// Module tags the owning module; fiber gates require different
	// modules. Grid traps all share module 0 (no fiber possible anyway).
	Module int
}

// Metrics aggregates everything the evaluation reports.
type Metrics struct {
	// Shuttles counts trap-to-trap ion transfers (one Split+Move+Merge
	// composite each) — the paper's headline metric.
	Shuttles int
	// ChainSwaps counts in-trap reorder swaps spent reaching chain edges.
	ChainSwaps int
	// Gates1, Gates2, FiberGates, Measurements count executed operations.
	Gates1       int
	Gates2       int
	FiberGates   int
	Measurements int
	// InsertedSwaps counts logical SWAPs added by the compiler (each is
	// three fiber-entangled MS gates, §3.3).
	InsertedSwaps int
	// MakespanUS is the execution-time estimate in µs.
	MakespanUS float64
	// Fidelity is the running log-space product over all operations.
	Fidelity physics.Fidelity
}

// Op is one timed entry of the optional execution trace.
type Op struct {
	// Kind is "chainswap", "split", "move" or "merge" for shuttle
	// primitives, "gate1" (also measurements), "gate2", "fiber" for a
	// program gate over the fiber link, or "swapfiber" for one of the three
	// fiber MS gates of a compiler-inserted SWAP.
	Kind    string
	Qubits  []int
	Zone    int // primary zone (destination for moves)
	ZoneB   int // secondary zone (source for moves, partner for fiber); -1 if none
	StartUS float64
	DurUS   float64
}

// Engine is the execution state: chain contents, per-zone heat, resource
// availability and metrics.
type Engine struct {
	zones  []ZoneInfo
	params physics.Params

	// ln F of the ops whose fidelity depends only on params, precomputed by
	// NewEngine with the same physics.Params expressions the ops would
	// evaluate, so every op adds bit-identical factors with no math.Log:
	// the chain swap, split and merge shuttle primitives, the intrinsic
	// one-qubit and fiber gates, and the intrinsic two-qubit gate indexed
	// by chain length (0 … the largest zone capacity, capped at the qubit
	// count: a chain never holds more ions than the program has qubits).
	swapLogF, splitLogF, mergeLogF float64
	gate1LogF, fiberLogF           float64
	gate2LogF                      []float64

	chains  [][]int // per zone: ordered logical qubits (chain order)
	loc     []int   // per qubit: zone ID, -1 when unplaced
	idx     []int   // per qubit: position within its chain, -1 when unplaced
	heat    []float64
	availZ  []float64
	availQ  []float64
	nQubits int

	metrics Metrics
	trace   []Op
	keepOp  bool
}

// NewEngine builds an engine over the given zones for n logical qubits.
func NewEngine(zones []ZoneInfo, n int, p physics.Params) *Engine {
	maxCap := 0
	for _, z := range zones {
		maxCap = max(maxCap, z.Capacity)
	}
	gate2 := make([]float64, min(maxCap, n)+1)
	for l := range gate2 {
		gate2[l] = math.Log(p.Gate2Fidelity(l))
	}
	e := &Engine{
		zones:     zones,
		params:    p,
		swapLogF:  p.ShuttleLogF(p.SwapTimeUS, p.SwapHeat),
		splitLogF: p.ShuttleLogF(p.SplitTimeUS, p.SplitHeat),
		mergeLogF: p.ShuttleLogF(p.MergeTimeUS, p.MergeHeat),
		gate1LogF: p.Gate1LogF(0),
		fiberLogF: p.FiberLogF(0, 0),
		gate2LogF: gate2,
		chains:    make([][]int, len(zones)),
		loc:       make([]int, n),
		idx:       make([]int, n),
		heat:      make([]float64, len(zones)),
		availZ:    make([]float64, len(zones)),
		availQ:    make([]float64, n),
		nQubits:   n,
	}
	for i := range e.loc {
		e.loc[i] = -1
		e.idx[i] = -1
	}
	return e
}

// EnableTrace turns on op recording (used by tests and the CLI -trace flag).
func (e *Engine) EnableTrace() { e.keepOp = true }

// Trace returns the recorded ops (nil unless EnableTrace was called).
func (e *Engine) Trace() []Op { return e.trace }

// Metrics returns a snapshot of the accumulated metrics with the makespan
// finalised.
func (e *Engine) Metrics() Metrics {
	m := e.metrics
	m.MakespanUS = 0
	for _, t := range e.availZ {
		if t > m.MakespanUS {
			m.MakespanUS = t
		}
	}
	for _, t := range e.availQ {
		if t > m.MakespanUS {
			m.MakespanUS = t
		}
	}
	return m
}

// NumQubits returns the logical register width.
func (e *Engine) NumQubits() int { return e.nQubits }

// ZoneOf returns the zone currently holding q (-1 if unplaced).
//
//mussti:hotpath
func (e *Engine) ZoneOf(q int) int { return e.loc[q] }

// Chain returns the chain content of zone z in order. The returned slice is
// the engine's own storage; callers must not mutate it.
//
//mussti:hotpath
func (e *Engine) Chain(z int) []int { return e.chains[z] }

// Load returns the current chain length of zone z.
//
//mussti:hotpath
func (e *Engine) Load(z int) int { return len(e.chains[z]) }

// Free returns the remaining capacity of zone z.
//
//mussti:hotpath
func (e *Engine) Free(z int) int { return e.zones[z].Capacity - len(e.chains[z]) }

// Heat returns the accumulated motional heat of zone z.
func (e *Engine) Heat(z int) float64 { return e.heat[z] }

// Info returns the static description of zone z.
func (e *Engine) Info(z int) ZoneInfo { return e.zones[z] }

// Place sets the initial position of q without cost. It errors when the
// zone is full or q is already placed; initial mapping must be consistent.
func (e *Engine) Place(q, z int) error {
	if q < 0 || q >= e.nQubits {
		return fmt.Errorf("sim: place qubit %d out of range", q)
	}
	if e.loc[q] != -1 {
		return fmt.Errorf("sim: qubit %d already placed in zone %d", q, e.loc[q])
	}
	if z < 0 || z >= len(e.zones) {
		return fmt.Errorf("sim: place into invalid zone %d", z)
	}
	if len(e.chains[z]) >= e.zones[z].Capacity {
		return fmt.Errorf("sim: zone %d full (capacity %d)", z, e.zones[z].Capacity)
	}
	e.chains[z] = append(e.chains[z], q)
	e.loc[q] = z
	e.idx[q] = len(e.chains[z]) - 1
	return nil
}

// record appends a trace entry when tracing is on. It takes the (at most
// two) qubits as plain ints — q2 is -1 for one-qubit ops — so untraced runs,
// the steady state of every compile, build no []int argument at all: the
// Qubits slice is only materialised inside the keepOp branch.
//
//mussti:hotpath
func (e *Engine) record(kind string, q1, q2 int, zone, zoneB int, start, dur float64) {
	if e.keepOp {
		qs := []int{q1} //mussti:allow=hotalloc trace-only branch; untraced compiles never reach it
		if q2 >= 0 {
			qs = append(qs, q2)
		}
		e.trace = append(e.trace, Op{Kind: kind, Qubits: qs, Zone: zone, ZoneB: zoneB, StartUS: start, DurUS: dur})
	}
}

// indexInChain returns q's index within its chain. O(1): the engine tracks
// every qubit's chain position through Place/Move/InsertedSwap instead of
// scanning the chain (CheckConsistency still audits the tracked positions
// against the chains themselves).
//
//mussti:hotpath
//mussti:inline
func (e *Engine) indexInChain(q int) int {
	if e.loc[q] == -1 {
		panic(fmt.Sprintf("sim: chain index of unplaced qubit %d", q))
	}
	return e.idx[q]
}

// Move shuttles q from its current zone to dst, paying chain swaps to reach
// the nearer chain edge, then Split, Move (over distanceUM) and Merge. It
// errors when dst is full, identical to the source, or q is unplaced — all
// compiler bugs that must surface.
//
//mussti:hotpath
func (e *Engine) Move(q, dst int, distanceUM float64) error {
	src := e.loc[q]
	if src == -1 {
		return fmt.Errorf("sim: move of unplaced qubit %d", q)
	}
	if dst < 0 || dst >= len(e.zones) {
		return fmt.Errorf("sim: move to invalid zone %d", dst)
	}
	if dst == src {
		return fmt.Errorf("sim: qubit %d moved to its own zone %d", q, src)
	}
	if len(e.chains[dst]) >= e.zones[dst].Capacity {
		return fmt.Errorf("sim: move qubit %d to full zone %d (capacity %d)", q, dst, e.zones[dst].Capacity)
	}
	p := &e.params

	idx := e.indexInChain(q)
	l := len(e.chains[src])
	swaps := idx
	if l-1-idx < swaps {
		swaps = l - 1 - idx
	}

	start := maxf(e.availZ[src], e.availZ[dst], e.availQ[q])
	t := start
	// Chain swaps to reach the nearer edge.
	for s := 0; s < swaps; s++ {
		e.heat[src] += p.SwapHeat
		e.metrics.Fidelity.MulLog(e.swapLogF)
		e.record("chainswap", q, -1, src, -1, t, p.SwapTimeUS)
		t += p.SwapTimeUS
	}
	e.metrics.ChainSwaps += swaps

	// Split from the source chain.
	e.heat[src] += p.SplitHeat
	e.metrics.Fidelity.MulLog(e.splitLogF)
	e.record("split", q, -1, src, -1, t, p.SplitTimeUS)
	t += p.SplitTimeUS
	srcFree := t // source zone is free once the ion has split off

	// Move over the physical distance.
	mt := p.MoveTimeUS(distanceUM)
	e.heat[dst] += p.MoveHeat
	e.metrics.Fidelity.MulLog(p.ShuttleLogF(mt, p.MoveHeat))
	e.record("move", q, -1, dst, src, t, mt)
	t += mt

	// Merge into the destination chain.
	e.heat[dst] += p.MergeHeat
	e.metrics.Fidelity.MulLog(e.mergeLogF)
	e.record("merge", q, -1, dst, src, t, p.MergeTimeUS)
	t += p.MergeTimeUS

	e.metrics.Shuttles++
	e.availZ[src] = srcFree
	e.availZ[dst] = t
	e.availQ[q] = t

	// Update occupancy: remove from src preserving order (re-indexing the
	// ions that shift down), append at dst edge.
	chain := e.chains[src]
	for j := idx; j < len(chain)-1; j++ {
		chain[j] = chain[j+1]
		e.idx[chain[j]] = j
	}
	e.chains[src] = chain[:len(chain)-1]
	e.chains[dst] = append(e.chains[dst], q)
	e.loc[q] = dst
	e.idx[q] = len(e.chains[dst]) - 1
	return nil
}

// Gate1 executes a one-qubit gate on q in place.
//
//mussti:hotpath
func (e *Engine) Gate1(q int) error {
	z := e.loc[q]
	if z == -1 {
		return fmt.Errorf("sim: 1q gate on unplaced qubit %d", q)
	}
	p := &e.params
	start := maxf(e.availZ[z], e.availQ[q])
	e.metrics.Fidelity.MulLog(e.gate1LogF + p.BackgroundLogF(e.heat[z]))
	e.record("gate1", q, -1, z, -1, start, p.Gate1TimeUS)
	end := start + p.Gate1TimeUS
	e.availZ[z] = end
	e.availQ[q] = end
	e.metrics.Gates1++
	return nil
}

// Measure executes a measurement; modelled like a one-qubit op with 1q
// duration (readout fidelity folded into Gate1Fidelity).
//
//mussti:hotpath
func (e *Engine) Measure(q int) error {
	if err := e.Gate1(q); err != nil {
		return err
	}
	e.metrics.Gates1--
	e.metrics.Measurements++
	return nil
}

// Gate2 executes a two-qubit MS gate; both qubits must share one
// gate-capable zone.
//
//mussti:hotpath
func (e *Engine) Gate2(a, b int) error {
	za, zb := e.loc[a], e.loc[b]
	if za == -1 || zb == -1 {
		return fmt.Errorf("sim: 2q gate on unplaced qubit (%d@%d, %d@%d)", a, za, b, zb)
	}
	if za != zb {
		return fmt.Errorf("sim: 2q gate %d-%d across zones %d and %d", a, b, za, zb)
	}
	if !e.zones[za].GateCapable {
		return fmt.Errorf("sim: 2q gate %d-%d in non-gate-capable zone %d", a, b, za)
	}
	p := &e.params
	start := maxf(e.availZ[za], e.availQ[a], e.availQ[b])
	e.metrics.Fidelity.MulLog(e.gate2LogF[len(e.chains[za])] + p.BackgroundLogF(e.heat[za]))
	e.record("gate2", a, b, za, -1, start, p.Gate2TimeUS)
	end := start + p.Gate2TimeUS
	e.availZ[za] = end
	e.availQ[a] = end
	e.availQ[b] = end
	e.metrics.Gates2++
	return nil
}

// Fiber executes one fiber-entangled two-qubit gate between qubits sitting
// in optical zones of two different modules, as a program gate: the trace
// records it as "fiber".
//
//mussti:hotpath
func (e *Engine) Fiber(a, b int) error { return e.fiber("fiber", a, b) }

// fiber executes one fiber-entangled MS gate and records it under kind:
// "fiber" for a program gate, "swapfiber" for one of an inserted SWAP's
// three, so the trace says which is which.
//
//mussti:hotpath
func (e *Engine) fiber(kind string, a, b int) error {
	za, zb := e.loc[a], e.loc[b]
	if za == -1 || zb == -1 {
		return fmt.Errorf("sim: fiber gate on unplaced qubit (%d@%d, %d@%d)", a, za, b, zb)
	}
	if za == zb {
		return fmt.Errorf("sim: fiber gate %d-%d within one zone %d", a, b, za)
	}
	ia, ib := e.zones[za], e.zones[zb]
	if !ia.Optical || !ib.Optical {
		return fmt.Errorf("sim: fiber gate %d-%d outside optical zones (%d:%v, %d:%v)", a, b, za, ia.Optical, zb, ib.Optical)
	}
	if ia.Module == ib.Module {
		return fmt.Errorf("sim: fiber gate %d-%d within module %d", a, b, ia.Module)
	}
	p := &e.params
	start := maxf(e.availZ[za], e.availZ[zb], e.availQ[a], e.availQ[b])
	e.metrics.Fidelity.MulLog(e.fiberLogF + p.BackgroundLogF(e.heat[za]) + p.BackgroundLogF(e.heat[zb]))
	e.record(kind, a, b, za, zb, start, p.FiberTimeUS)
	end := start + p.FiberTimeUS
	e.availZ[za] = end
	e.availZ[zb] = end
	e.availQ[a] = end
	e.availQ[b] = end
	e.metrics.FiberGates++
	return nil
}

// InsertedSwap realises a compiler-inserted logical SWAP between qubits on
// different modules: three fiber-entangled MS gates (§3.3), traced as
// "swapfiber", after which the logical qubits exchange physical positions
// in the engine's bookkeeping. They count towards Metrics.FiberGates like
// program fiber gates.
//
//mussti:hotpath
func (e *Engine) InsertedSwap(a, b int) error {
	for i := 0; i < 3; i++ {
		if err := e.fiber("swapfiber", a, b); err != nil {
			return fmt.Errorf("sim: inserted swap %d-%d: %w", a, b, err)
		}
	}
	e.metrics.InsertedSwaps++
	// Exchange the physical bindings: position (zone + chain slot) of a now
	// holds logical b and vice versa.
	za, zb := e.loc[a], e.loc[b]
	ia, ib := e.indexInChain(a), e.indexInChain(b)
	e.chains[za][ia], e.chains[zb][ib] = b, a
	e.loc[a], e.loc[b] = zb, za
	e.idx[a], e.idx[b] = ib, ia
	// Their availability timestamps travel with the logical qubits and are
	// already equal after the three fiber ops.
	return nil
}

// SwapsToEdge returns how many chain swaps a move of q would pay to reach
// the nearer edge of its current chain. Schedulers use it for cost
// estimates. Returns 0 for unplaced qubits.
//
//mussti:hotpath
func (e *Engine) SwapsToEdge(q int) int {
	if e.loc[q] == -1 {
		return 0
	}
	idx := e.indexInChain(q)
	l := len(e.chains[e.loc[q]])
	s := idx
	if l-1-idx < s {
		s = l - 1 - idx
	}
	return s
}

// CheckConsistency verifies internal invariants: every placed qubit appears
// in exactly the chain its loc claims, chains respect capacity and contain
// no duplicates. Property tests run this after random op sequences.
func (e *Engine) CheckConsistency() error {
	seen := make(map[int]int)
	for z, chain := range e.chains {
		if len(chain) > e.zones[z].Capacity {
			return fmt.Errorf("sim: zone %d over capacity: %d > %d", z, len(chain), e.zones[z].Capacity)
		}
		for i, q := range chain {
			if prev, dup := seen[q]; dup {
				return fmt.Errorf("sim: qubit %d in zones %d and %d", q, prev, z)
			}
			seen[q] = z
			if e.loc[q] != z {
				return fmt.Errorf("sim: qubit %d loc %d but found in zone %d", q, e.loc[q], z)
			}
			if e.idx[q] != i {
				return fmt.Errorf("sim: qubit %d tracked at chain index %d but sits at %d in zone %d", q, e.idx[q], i, z)
			}
		}
	}
	for q, z := range e.loc {
		if z == -1 {
			continue
		}
		if zz, ok := seen[q]; !ok || zz != z {
			return fmt.Errorf("sim: qubit %d claims zone %d but chain disagrees", q, z)
		}
	}
	return nil
}

func maxf(xs ...float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
