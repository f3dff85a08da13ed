// Package dag builds and consumes the gate dependency graph described in
// §3.1 of the MUSS-TI paper.
//
// Each two-qubit gate of the circuit is a node; a directed edge (g_i, g_j)
// means g_j may only execute after g_i. MUSS-TI disregards one-qubit gates
// during scheduling (they execute in place), so the graph is built over
// two-qubit gates only, with dependencies induced by operand overlap: two
// gates conflict iff they share a qubit, and the earlier one in program
// order is the predecessor. Because qubit timelines are linear, it is
// sufficient to link each gate to the *next* gate on each of its operands —
// the transitive closure recovers all ordering constraints, and the graph
// stays O(g) in size, matching the paper's O(g) construction cost.
package dag

import (
	"fmt"

	"mussti/internal/circuit"
)

// Node is one two-qubit gate in the dependency graph.
type Node struct {
	// ID is the node's index within the graph (0..len(Nodes)-1), which is
	// also its rank in program order over two-qubit gates.
	ID int
	// GateIndex is the index of the gate in the source circuit's Gates.
	GateIndex int
	// Gate is the two-qubit gate itself.
	Gate circuit.Gate
	// Succ and Pred are adjacent node IDs (at most 2 each: one per operand).
	Succ []int
	Pred []int
}

// Graph is the dependency DAG over the two-qubit gates of one circuit.
type Graph struct {
	Nodes []Node
	// ByQubit lists, for each qubit, the node IDs touching it in order.
	ByQubit [][]int

	// indegree[id] counts the *unexecuted* predecessors of id; it reaches 0
	// exactly when id joins the frontier.
	indegree []int
	executed []bool
	// frontier holds the currently executable node IDs in ascending order.
	// It is maintained incrementally: Execute removes the executed ID and
	// merges unlocked successors at their sorted positions, so no scheduler
	// step ever rebuilds (or re-sorts) it from scratch.
	frontier []int
	// frontierBuf is the reused snapshot handed out by Frontier.
	frontierBuf []int
	nLeft       int

	// qpos[q] is the position in ByQubit[q] of q's first unexecuted node.
	// q's nodes form a chain, so its executed nodes are always a prefix.
	qpos []int32

	// Look-ahead layer memo (see layer): memoLayer[id] is min(layer of id,
	// memoBudget[id]), valid only where memoMark[id] equals epoch. Execute
	// and Reset advance the epoch, which invalidates every memo in O(1).
	memoLayer  []int32
	memoBudget []int32
	memoMark   []uint32
	epoch      uint32
}

// Build constructs the graph from a circuit. Only two-qubit gates become
// nodes; all other gates are ignored.
//
// Construction is O(g) in both time and allocation count: every node's
// Succ/Pred slice (at most two entries each, one per operand) and every
// ByQubit list is carved out of one shared backing array sized by a first
// counting pass, so building never reallocates per node.
func Build(c *circuit.Circuit) *Graph {
	nTwo := 0
	perQubit := make([]int, c.NumQubits) // two-qubit gates touching each qubit
	for _, gate := range c.Gates {
		if gate.Kind.IsTwoQubit() {
			nTwo++
			perQubit[gate.Qubits[0]]++
			perQubit[gate.Qubits[1]]++
		}
	}
	g := &Graph{
		Nodes:   make([]Node, 0, nTwo),
		ByQubit: make([][]int, c.NumQubits),
	}
	edgeBacking := make([]int, 4*nTwo) // 2 Succ + 2 Pred slots per node
	byQubitBacking := make([]int, 2*nTwo)
	off := 0
	for q, cnt := range perQubit {
		g.ByQubit[q] = byQubitBacking[off : off : off+cnt]
		off += cnt
	}
	last := perQubit // reuse: last node touching each qubit, -1 if none
	for i := range last {
		last[i] = -1
	}
	for gi := range c.Gates {
		gate := &c.Gates[gi]
		if !gate.Kind.IsTwoQubit() {
			continue
		}
		id := len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{
			ID: id, GateIndex: gi, Gate: *gate,
			Succ: edgeBacking[4*id : 4*id : 4*id+2],
			Pred: edgeBacking[4*id+2 : 4*id+2 : 4*id+4],
		})
		for _, q := range gate.Operands() {
			if p := last[q]; p >= 0 {
				// Avoid duplicate edge when both operands match.
				if len(g.Nodes[id].Pred) == 0 || g.Nodes[id].Pred[len(g.Nodes[id].Pred)-1] != p {
					g.Nodes[p].Succ = append(g.Nodes[p].Succ, id)
					g.Nodes[id].Pred = append(g.Nodes[id].Pred, p)
				}
			}
			last[q] = id
			g.ByQubit[q] = append(g.ByQubit[q], id)
		}
	}
	g.Reset()
	return g
}

// Reset restores the graph to its unexecuted state so it can be scheduled
// again without rebuilding. The compiler leans on this: one compile replays
// a single Graph across the SABRE forward probe and every candidate
// production pass (core's per-circuit prep), so Reset runs on the compile
// hot path — it must restore every piece of execution state (indegree,
// executed flags, frontier, per-qubit positions, the look-ahead memo
// epoch) and nothing else.
func (g *Graph) Reset() {
	if g.indegree == nil {
		n := len(g.Nodes)
		g.indegree = make([]int, n)
		g.executed = make([]bool, n)
		g.qpos = make([]int32, len(g.ByQubit))
		g.memoLayer = make([]int32, n)
		g.memoBudget = make([]int32, n)
		g.memoMark = make([]uint32, n)
	}
	clear(g.qpos)
	g.nextEpoch()
	g.frontier = g.frontier[:0]
	g.nLeft = len(g.Nodes)
	clear(g.executed)
	for id := range g.Nodes {
		preds := len(g.Nodes[id].Pred)
		g.indegree[id] = preds
		if preds == 0 {
			// IDs ascend, so appends keep the frontier sorted.
			g.frontier = append(g.frontier, id)
		}
	}
}

// Remaining reports how many nodes have not been executed yet.
func (g *Graph) Remaining() int { return g.nLeft }

// Done reports whether every node has been executed.
func (g *Graph) Done() bool { return g.nLeft == 0 }

// Frontier returns the IDs of currently executable nodes (zero unexecuted
// predecessors), in ascending ID order — i.e. first-come first-served order,
// which is the tie-break MUSS-TI's gate selection uses.
//
// The returned slice is a reused buffer: it stays valid (as a snapshot)
// across Execute calls, but the next Frontier call overwrites it, so callers
// must not retain it across frontier reads.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) Frontier() []int {
	if cap(g.frontierBuf) < len(g.frontier) {
		g.frontierBuf = make([]int, 0, cap(g.frontier)) //mussti:allow=hotalloc scratch grows to the widest frontier, then stays
	}
	g.frontierBuf = g.frontierBuf[:len(g.frontier)]
	copy(g.frontierBuf, g.frontier)
	return g.frontierBuf
}

// Executed reports whether node id has been executed.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) Executed(id int) bool { return g.executed[id] }

// Execute marks a frontier node as done and unlocks its successors.
// It panics if the node is not currently executable — calling it otherwise
// indicates a scheduler bug, which must not be silently absorbed.
//
//mussti:hotpath
func (g *Graph) Execute(id int) {
	pos := g.frontierIndex(id)
	if pos < 0 {
		panic(fmt.Sprintf("dag: node %d executed out of order (indegree %d, executed %v)",
			id, g.indegree[id], g.executed[id]))
	}
	g.frontier = append(g.frontier[:pos], g.frontier[pos+1:]...)
	g.executed[id] = true
	g.nLeft--
	n := &g.Nodes[id]
	for _, q := range n.Gate.Qubits {
		g.qpos[q]++
	}
	g.nextEpoch()
	for _, s := range n.Succ {
		g.indegree[s]--
		if g.indegree[s] == 0 {
			g.frontierInsert(s)
		}
	}
}

// frontierIndex binary-searches the sorted frontier for id; -1 when absent.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) frontierIndex(id int) int {
	lo, hi := 0, len(g.frontier)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.frontier[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.frontier) && g.frontier[lo] == id {
		return lo
	}
	return -1
}

// frontierInsert places id at its sorted position. Unlocked successors have
// larger IDs than the executed node but not necessarily than the rest of the
// frontier, so this is a real insertion, not an append.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) frontierInsert(id int) {
	lo, hi := 0, len(g.frontier)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.frontier[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	g.frontier = append(g.frontier, 0)
	copy(g.frontier[lo+1:], g.frontier[lo:])
	g.frontier[lo] = id
}

// Layers returns the ASAP layering of the graph: layer 0 is the initial
// frontier, layer i+1 the nodes whose longest path from a source has length
// i+1. Used by tests and by CriticalPathLen.
func (g *Graph) Layers() [][]int {
	depth := make([]int, len(g.Nodes))
	var layers [][]int
	for id := range g.Nodes {
		d := 0
		for _, p := range g.Nodes[id].Pred {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[id] = d
		for len(layers) <= d {
			layers = append(layers, nil)
		}
		layers[d] = append(layers[d], id)
	}
	return layers
}

// AheadOn visits the unexecuted nodes touching qubit q that lie in the
// first k layers *of the remaining graph* (layer = longest path through
// unexecuted predecessors), calling visit for each with its layer, in
// ascending node-ID order. This answers the per-qubit question the §3.3
// SWAP-insertion weight table asks: where are q's partners in the next k
// DAG layers?
//
// Only q's own gate list is read: its i-th unexecuted entry sits in layer
// i or deeper (q's gates form a chain), so at most the first k entries can
// lie in the window, and the scan stops at the first one that does not.
// Each layer comes from a memoized backward walk capped at k steps (see
// layer), so a query costs O(k) nodes plus their unmemoized ancestors,
// never the whole window.
//
//mussti:hotpath
func (g *Graph) AheadOn(q, k int, visit func(layer int, n *Node)) {
	for _, id := range g.window(q, k) {
		visit(int(g.memoLayer[id]), &g.Nodes[id])
	}
}

// AheadOnPair is AheadOn for two qubits at once: it visits every window
// node touching a or b exactly once, in ascending ID order — the order a
// scan of the whole window would produce, which keeps callers' floating-
// point accumulation order fixed.
//
//mussti:hotpath
func (g *Graph) AheadOnPair(a, b, k int, visit func(layer int, n *Node)) {
	wa, wb := g.window(a, k), g.window(b, k)
	for len(wa) > 0 || len(wb) > 0 {
		var id int
		switch {
		case len(wb) == 0 || len(wa) > 0 && wa[0] < wb[0]:
			id, wa = wa[0], wa[1:]
		case len(wa) == 0 || wb[0] < wa[0]:
			id, wb = wb[0], wb[1:]
		default: // a node touching both qubits heads both lists
			id, wa, wb = wa[0], wa[1:], wb[1:]
		}
		visit(int(g.memoLayer[id]), &g.Nodes[id])
	}
}

// window returns the prefix of q's unexecuted gate list that lies in the
// first k remaining layers. On return memoLayer holds the exact layer of
// every returned node: each was computed below its budget, so the memo is
// exact and no later query of this epoch overwrites it.
//
//mussti:hotpath
func (g *Graph) window(q, k int) []int {
	if k > g.nLeft {
		k = g.nLeft // no remaining layer is as deep as nLeft
	}
	if k <= 0 {
		return nil
	}
	list := g.ByQubit[q][g.qpos[q]:]
	if len(list) > k {
		list = list[:k]
	}
	for i, id := range list {
		if g.layer(id, int32(k)) >= int32(k) {
			return list[:i]
		}
	}
	return list
}

// layer returns min(remaining layer of id, budget). The backward walk
// spends one unit of budget per predecessor step, so it never reaches more
// than budget levels above id.
//
// Results are memoized for the current epoch together with the budget they
// were computed under: a memo below its budget is the exact layer, and a
// capped memo still answers any query whose budget is no larger. Only a
// capped memo asked for a deeper answer is recomputed, so every node is
// walked at most once per distinct budget per epoch.
//
//mussti:hotpath
func (g *Graph) layer(id int, budget int32) int32 {
	if g.memoMark[id] == g.epoch {
		v, b := g.memoLayer[id], g.memoBudget[id]
		if v < b || budget <= b {
			return min(v, budget)
		}
	}
	var d int32
	if budget > 0 {
		for _, p := range g.Nodes[id].Pred {
			if !g.executed[p] {
				d = max(d, g.layer(p, budget-1)+1)
			}
		}
	}
	g.memoMark[id] = g.epoch
	g.memoLayer[id] = d
	g.memoBudget[id] = budget
	return d
}

// nextEpoch invalidates every layer memo: executing a node can lower the
// remaining layer of anything that depends on it.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) nextEpoch() {
	g.epoch++
	if g.epoch == 0 { // counter wrapped: clear the stale marks
		clear(g.memoMark)
		g.epoch = 1
	}
}

// CriticalPathLen returns the number of layers (two-qubit depth).
func (g *Graph) CriticalPathLen() int { return len(g.Layers()) }

// Validate checks structural invariants: edges are consistent, IDs ascend in
// program order, and the edge relation matches operand overlap. Tests use it
// as a property check against randomly generated circuits.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		for _, s := range n.Succ {
			if s <= n.ID || s >= len(g.Nodes) {
				return fmt.Errorf("node %d: bad successor %d", n.ID, s)
			}
			if !contains(g.Nodes[s].Pred, n.ID) {
				return fmt.Errorf("edge %d->%d missing reverse link", n.ID, s)
			}
			if !sharesOperand(n.Gate, g.Nodes[s].Gate) {
				return fmt.Errorf("edge %d->%d without shared operand", n.ID, s)
			}
		}
		for _, p := range n.Pred {
			if p >= n.ID || p < 0 {
				return fmt.Errorf("node %d: bad predecessor %d", n.ID, p)
			}
			if !contains(g.Nodes[p].Succ, n.ID) {
				return fmt.Errorf("edge %d->%d missing forward link", p, n.ID)
			}
		}
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func sharesOperand(a, b circuit.Gate) bool {
	for _, q := range a.Operands() {
		if b.Touches(q) {
			return true
		}
	}
	return false
}
