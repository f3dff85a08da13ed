// Package baseline re-implements the three comparison compilers of the
// MUSS-TI evaluation, all targeting the monolithic QCCD grid of Fig. 1(b):
//
//   - Murali et al., "Architecting NISQ trapped ion quantum computers"
//     (ISCA 2020) [55]: the standard greedy QCCD compiler — execute ready
//     gates, otherwise shuttle the first operand trap-by-trap towards its
//     partner, evicting overflow ions to neighbouring traps.
//   - Dai et al., "Advanced Shuttle Strategies for Parallel QCCD
//     Architectures" (IEEE TQE 2024) [13]: improves on [55] with
//     look-ahead destination choice (the meeting trap is picked to also
//     suit upcoming partners) and by preferring the cheaper of the two
//     operands to move.
//   - Schoenberger et al., MQT "Shuttling for scalable trapped-ion quantum
//     computers" (TCAD 2024) [70]: a dedicated-processing-zone discipline —
//     ions shuttle from their home traps to a processing site for every
//     gate and return afterwards, giving exact but shuttle-hungry
//     schedules (the largest shuttle counts in Table 2).
//
// These are faithful to the *algorithmic signature* of each system rather
// than line-by-line ports (the originals are external Python/C++ code);
// see DESIGN.md "Substitutions". All three share the grid router in this
// package and the physics engine in internal/sim, so metric differences
// come from scheduling policy alone.
package baseline

import (
	"context"
	"fmt"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/core"
	"mussti/internal/dag"
	"mussti/internal/physics"
	"mussti/internal/sim"
)

// Algorithm selects one of the baseline compilers.
type Algorithm int

// Baseline algorithms.
const (
	// Murali is the ISCA 2020 greedy QCCD compiler [55].
	Murali Algorithm = iota
	// Dai is the look-ahead shuttle-strategy compiler [13].
	Dai
	// MQT is the dedicated-processing-zone shuttling compiler [70].
	MQT
)

// String names the algorithm as the paper's tables do.
func (a Algorithm) String() string {
	switch a {
	case Murali:
		return "QCCD-Murali"
	case Dai:
		return "QCCD-Dai"
	case MQT:
		return "MQT"
	}
	return "unknown"
}

// RegistryName is the algorithm's compiler-registry identifier ("murali",
// "dai", "mqt") — the name LookupCompiler resolves, as distinct from the
// paper's table label that String returns.
func (a Algorithm) RegistryName() string {
	switch a {
	case Murali:
		return "murali"
	case Dai:
		return "dai"
	case MQT:
		return "mqt"
	}
	return ""
}

// compile schedules circuit c onto grid g with the chosen baseline, reading
// the CompileConfig fields the baselines understand (Params, LookAhead,
// Trace, Observer) and defaulting the zero ones: Table-1 physics and the Dai
// look-ahead k=4. The routing loop checks ctx at every frontier step, so a
// cancelled or expired context aborts the compile within one scheduler step
// and surfaces ctx.Err().
func compile(ctx context.Context, algo Algorithm, c *circuit.Circuit, g *arch.Grid, cfg core.CompileConfig) (*core.Result, error) {
	if cfg.Params == (physics.Params{}) {
		cfg.Params = physics.Default()
	}
	if cfg.LookAhead <= 0 {
		cfg.LookAhead = 4
	}
	if c.NumQubits > g.TotalCapacity() {
		return nil, fmt.Errorf("baseline: circuit %q needs %d qubits, grid holds %d",
			c.Name, c.NumQubits, g.TotalCapacity())
	}
	start := time.Now() //mussti:allow=determinism CompileTime is reporting metadata, never schedule input
	r := &gridRouter{
		ctx:  ctx,
		algo: algo,
		c:    c,
		grid: g,
		cfg:  cfg,
		eng:  sim.NewGridEngine(g, c.NumQubits, cfg.Params),
		g:    dag.Build(c),
		obs:  core.ObserverOrNop(cfg.Observer),
	}
	if cfg.Trace {
		r.eng.EnableTrace()
	}
	if err := r.init(); err != nil {
		return nil, err
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	//mussti:allow=determinism CompileTime is reporting metadata, never schedule input
	return &core.Result{Metrics: r.eng.Metrics(), CompileTime: time.Since(start), InitialMapping: r.home, Trace: r.eng.Trace()}, nil
}

// gridRouter is shared scheduling state for all three baselines.
type gridRouter struct {
	ctx  context.Context
	algo Algorithm
	c    *circuit.Circuit
	grid *arch.Grid
	cfg  core.CompileConfig
	eng  *sim.Engine
	g    *dag.Graph
	obs  core.Observer

	perQubit [][]int
	cursor   []int
	lastUsed []int64
	clock    int64
	executed int   // two-qubit gates done, for Observer ticks
	home     []int // each qubit's start trap (MQT also returns ions there)

	// trapScratch is the reused buffer of futurePartnerTraps (Dai's
	// look-ahead destination choice, run once per routed gate).
	trapScratch []int
	// nbrs is the grid's adjacency, built once per compile; visited, ring
	// and nextRing are spillTarget's breadth-first-search scratch, sized to
	// the grid so they never grow.
	nbrs           [][]int
	visited        []bool
	ring, nextRing []int
}

func (r *gridRouter) init() error {
	n := r.c.NumQubits
	r.perQubit = r.c.PerQubitGates()
	r.cursor = make([]int, n)
	r.lastUsed = make([]int64, n)
	r.home = make([]int, n)
	traps := r.grid.NumTraps()
	r.nbrs = make([][]int, traps)
	for t := range r.nbrs {
		r.nbrs[t] = r.grid.Neighbors(t)
	}
	r.visited = make([]bool, traps)
	r.ring = make([]int, 0, traps)
	r.nextRing = make([]int, 0, traps)
	// Row-major sequential fill, the trivial mapping all three original
	// systems start from. MQT reserves its processing trap (trap 0).
	trap := 0
	if r.algo == MQT {
		trap = 1
	}
	for q := 0; q < n; q++ {
		for r.eng.Free(trap) == 0 {
			trap++
			if trap >= r.grid.NumTraps() {
				return fmt.Errorf("baseline: grid full while placing qubit %d", q)
			}
		}
		if err := r.eng.Place(q, trap); err != nil {
			return err
		}
		r.home[q] = trap
	}
	return nil
}

func (r *gridRouter) run() error {
	for q := 0; q < r.c.NumQubits; q++ {
		if err := r.flushOneQubit(q); err != nil {
			return err
		}
	}
	for !r.g.Done() {
		// Cancellation aborts within one frontier step, mirroring the
		// MUSS-TI scheduler's contract.
		if err := r.ctx.Err(); err != nil {
			return err
		}
		frontier := r.g.Frontier()
		progressed := false
		// All baselines execute already-co-located gates first; this is
		// standard greedy behaviour in [55] and [13]. MQT's discipline
		// executes only at the processing site, so co-location elsewhere
		// does not qualify.
		if r.algo != MQT {
			for _, id := range frontier {
				if r.g.Executed(id) {
					continue
				}
				a, b := r.operands(id)
				if r.eng.ZoneOf(a) == r.eng.ZoneOf(b) {
					if err := r.executeNode(id); err != nil {
						return err
					}
					progressed = true
				}
			}
			if progressed {
				continue
			}
		}
		id := frontier[0]
		if err := r.routeAndExecute(id); err != nil {
			return err
		}
	}
	for q := 0; q < r.c.NumQubits; q++ {
		if err := r.flushOneQubit(q); err != nil {
			return err
		}
	}
	return nil
}

func (r *gridRouter) operands(id int) (int, int) {
	g := r.g.Nodes[id].Gate
	return g.Qubits[0], g.Qubits[1]
}

func (r *gridRouter) executeNode(id int) error {
	a, b := r.operands(id)
	if err := r.eng.Gate2(a, b); err != nil {
		return fmt.Errorf("baseline %s: gate %v: %w", r.algo, r.g.Nodes[id].Gate, err)
	}
	r.clock++
	r.lastUsed[a] = r.clock
	r.lastUsed[b] = r.clock
	r.executed++
	r.obs.GateScheduled(r.executed, len(r.g.Nodes))
	gi := r.g.Nodes[id].GateIndex
	for _, q := range [2]int{a, b} {
		if r.cursor[q] < len(r.perQubit[q]) && r.perQubit[q][r.cursor[q]] == gi {
			r.cursor[q]++
		} else {
			return fmt.Errorf("baseline: cursor desync on qubit %d", q)
		}
	}
	r.g.Execute(id)
	for _, q := range [2]int{a, b} {
		if err := r.flushOneQubit(q); err != nil {
			return err
		}
	}
	return nil
}

func (r *gridRouter) flushOneQubit(q int) error {
	for r.cursor[q] < len(r.perQubit[q]) {
		gi := r.perQubit[q][r.cursor[q]]
		gate := r.c.Gates[gi]
		if gate.Kind.IsTwoQubit() {
			return nil
		}
		var err error
		if gate.Kind == circuit.KindMeasure {
			err = r.eng.Measure(q)
		} else {
			err = r.eng.Gate1(q)
		}
		if err != nil {
			return err
		}
		r.cursor[q]++
	}
	return nil
}

func (r *gridRouter) routeAndExecute(id int) error {
	switch r.algo {
	case Murali:
		return r.routeMurali(id)
	case Dai:
		return r.routeDai(id)
	case MQT:
		return r.routeMQT(id)
	}
	return fmt.Errorf("baseline: unknown algorithm %d", r.algo)
}
