package core

import (
	"context"
	"fmt"
	"math"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/dag"
	"mussti/internal/sim"
)

// scheduler is the mutable state of one scheduling run.
type scheduler struct {
	ctx  context.Context
	c    *circuit.Circuit
	d    *arch.Device
	opts Options
	eng  *sim.Engine
	g    *dag.Graph
	obs  Observer

	// perQubit[q] lists indices into c.Gates touching q, in order;
	// cursor[q] is the next unexecuted one. Used to interleave one-qubit
	// gates (executed in place) with the scheduled two-qubit gates.
	perQubit [][]int
	cursor   []int

	// next2q[q][i] is the circuit index of the first two-qubit gate at or
	// after position i of perQubit[q] (math.MaxInt32 when q is done
	// entangling), so nextUse — called once per chain resident on every
	// LRU/Belady victim scan — is a table lookup instead of a forward scan
	// of q's remaining gate list.
	next2q [][]int32

	// lastUsed[q] is the logical clock of q's last gate — the LRU key of
	// the qubit-replacement scheduler (§3.2).
	lastUsed []int64
	clock    int64
	// rngState drives the ReplaceRandom ablation policy deterministically.
	rngState uint64

	// executed counts two-qubit gates done this pass, for Observer ticks.
	executed int

	// stats tallies scheduling decisions for Result.Stats.
	stats SchedStats

	// attractScratch is the reused buffer futureAttraction fills on every
	// routed gate.
	attractScratch []attraction
	// wrowScratch is the reused single-qubit weight-table row of trySwapFor.
	wrowScratch []int

	// Multi-qubit weight-table scratch for pickSwapPartner, reused across
	// SWAP-insertion checks: wtRowOf[q] is 1+q's row in the current query
	// (0 = absent), wtRows the flat row backing, residentScratch the
	// optical-zone candidate list. See weightTable/weightAt/clearWeightTable.
	wtRowOf         []int32
	wtRows          []int
	residentScratch []int
}

// prep is the per-circuit precomputation every scheduling pass needs: the
// dependency DAG, the per-qubit gate lists and the next-two-qubit-use
// tables. All three depend only on the circuit, so one compile builds them
// once and replays them across every pass over that circuit — the SABRE
// probe pass and each candidate-mapping production run — via Graph.Reset,
// instead of rebuilding O(g) structures per pass.
type prep struct {
	c        *circuit.Circuit
	g        *dag.Graph
	perQubit [][]int
	next2q   [][]int32
}

// newPrep builds the shared scheduling state for one circuit.
func newPrep(c *circuit.Circuit) *prep {
	p := &prep{c: c, g: dag.Build(c), perQubit: c.PerQubitGates()}
	p.next2q = buildNextUseTables(c, p.perQubit)
	return p
}

func newScheduler(ctx context.Context, c *circuit.Circuit, d *arch.Device, opts Options, initial []int) (*scheduler, error) {
	return newSchedulerWith(ctx, newPrep(c), d, opts, initial)
}

// newSchedulerWith starts a scheduling pass over p's circuit, rewinding the
// shared DAG to its unexecuted state. The prep's structures are read-only
// to the pass (execution state lives in the scheduler and the graph's
// resettable bookkeeping), so passes may reuse one prep back to back — but
// not concurrently.
func newSchedulerWith(ctx context.Context, p *prep, d *arch.Device, opts Options, initial []int) (*scheduler, error) {
	p.g.Reset()
	s := &scheduler{
		ctx:      ctx,
		c:        p.c,
		d:        d,
		opts:     opts,
		eng:      sim.NewDeviceEngine(d, p.c.NumQubits, opts.Params),
		g:        p.g,
		obs:      ObserverOrNop(opts.Observer),
		perQubit: p.perQubit,
		next2q:   p.next2q,
		cursor:   make([]int, p.c.NumQubits),
		lastUsed: make([]int64, p.c.NumQubits),
	}
	for q, z := range initial {
		if err := s.eng.Place(q, z); err != nil {
			return nil, fmt.Errorf("core: initial mapping: %w", err)
		}
	}
	return s, nil
}

// buildNextUseTables precomputes, for every position of every per-qubit gate
// list, the circuit index of the next two-qubit gate from that position on.
// One backward pass per qubit over a single pooled backing array: O(total
// operand slots) = O(g) time and two allocations overall.
func buildNextUseTables(c *circuit.Circuit, perQubit [][]int) [][]int32 {
	total := 0
	for _, lst := range perQubit {
		total += len(lst) + 1
	}
	backing := make([]int32, total)
	tables := make([][]int32, len(perQubit))
	off := 0
	for q, lst := range perQubit {
		nx := backing[off : off+len(lst)+1]
		off += len(lst) + 1
		nx[len(lst)] = math.MaxInt32
		for i := len(lst) - 1; i >= 0; i-- {
			if c.Gates[lst[i]].Kind.IsTwoQubit() {
				nx[i] = int32(lst[i])
			} else {
				nx[i] = nx[i+1]
			}
		}
		tables[q] = nx
	}
	return tables
}

func (s *scheduler) mappingSnapshot() []int {
	m := make([]int, s.c.NumQubits)
	for q := range m {
		m[q] = s.eng.ZoneOf(q)
	}
	return m
}

// run executes the gate-scheduling loop of Fig. 3: gate selection, qubit
// routing, conflict handling, gate execution, DAG update — until empty or
// the context is cancelled. The cancellation check sits at the top of the
// frontier loop, so a cancelled context aborts within one scheduler step.
//
//mussti:hotpath
func (s *scheduler) run() error {
	// Leading one-qubit gates execute in place before any routing.
	for q := 0; q < s.c.NumQubits; q++ {
		if err := s.flushOneQubit(q); err != nil {
			return err
		}
	}
	for !s.g.Done() {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		frontier := s.g.Frontier()
		// Prioritise gates executable right away (§3.2 "Prioritize
		// executable gates"): execute every such frontier gate first.
		progressed := false
		for _, id := range frontier {
			if s.g.Executed(id) {
				continue // executed earlier in this sweep via flush
			}
			a, b := s.operands(id)
			if s.executableNow(a, b) {
				if err := s.executeNode(id); err != nil {
					return err
				}
				s.stats.ExecutableFast++
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Otherwise first-come, first-served: route the oldest frontier
		// gate's qubits to a suitable zone, then execute it.
		id := frontier[0]
		if err := s.route(id); err != nil {
			return err
		}
		s.stats.Routed++
		if err := s.executeNode(id); err != nil {
			return err
		}
	}
	// Trailing one-qubit gates (and measurements).
	for q := 0; q < s.c.NumQubits; q++ {
		if err := s.flushOneQubit(q); err != nil {
			return err
		}
	}
	return nil
}

//mussti:hotpath
func (s *scheduler) operands(id int) (int, int) {
	g := s.g.Nodes[id].Gate
	return g.Qubits[0], g.Qubits[1]
}

// executableNow reports whether the pair may entangle without any routing:
// co-located in one gate-capable zone, or sitting in optical zones of two
// different modules (fiber gate).
//
//mussti:hotpath
func (s *scheduler) executableNow(a, b int) bool {
	za, zb := s.eng.ZoneOf(a), s.eng.ZoneOf(b)
	if za == zb {
		return s.d.Zone(za).Level.GateCapable()
	}
	ia, ib := s.d.Zone(za), s.d.Zone(zb)
	return ia.Level == arch.LevelOptical && ib.Level == arch.LevelOptical && ia.Module != ib.Module
}

// executeNode runs DAG node id (gate assumed in an executable configuration),
// advances the one-qubit cursors past it, flushes newly ready one-qubit
// gates, updates LRU clocks, and triggers SWAP insertion after fiber gates.
//
//mussti:hotpath
func (s *scheduler) executeNode(id int) error {
	a, b := s.operands(id)
	za, zb := s.eng.ZoneOf(a), s.eng.ZoneOf(b)
	wasFiber := za != zb
	var err error
	if wasFiber {
		err = s.eng.Fiber(a, b)
	} else {
		err = s.eng.Gate2(a, b)
	}
	if err != nil {
		return fmt.Errorf("core: executing gate %v: %w", s.g.Nodes[id].Gate, err)
	}
	s.clock++
	s.lastUsed[a] = s.clock
	s.lastUsed[b] = s.clock
	s.executed++
	s.obs.GateScheduled(s.executed, len(s.g.Nodes))

	// Advance both cursors past this gate. ([2]int keeps the pair on the
	// stack; a []int literal here escaped to the heap once per gate.)
	gi := s.g.Nodes[id].GateIndex
	for _, q := range [2]int{a, b} {
		if s.cursor[q] < len(s.perQubit[q]) && s.perQubit[q][s.cursor[q]] == gi {
			s.cursor[q]++
		} else {
			return fmt.Errorf("core: cursor desync on qubit %d at gate %d", q, gi)
		}
	}
	s.g.Execute(id)
	for _, q := range [2]int{a, b} {
		if err := s.flushOneQubit(q); err != nil {
			return err
		}
	}
	if wasFiber && s.opts.SwapInsertion {
		if err := s.maybeInsertSwaps(a, b); err != nil {
			return err
		}
	}
	return nil
}

// flushOneQubit executes the run of one-qubit gates (and measurements) now
// at the front of q's per-qubit gate list.
//
//mussti:hotpath
func (s *scheduler) flushOneQubit(q int) error {
	for s.cursor[q] < len(s.perQubit[q]) {
		gi := s.perQubit[q][s.cursor[q]]
		gate := s.c.Gates[gi]
		if gate.Kind.IsTwoQubit() {
			return nil
		}
		var err error
		if gate.Kind == circuit.KindMeasure {
			err = s.eng.Measure(q)
		} else {
			err = s.eng.Gate1(q)
		}
		if err != nil {
			return fmt.Errorf("core: executing %v: %w", gate, err)
		}
		s.cursor[q]++
	}
	return nil
}
