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
	// exactly when id joins the frontier. WalkAhead reads it as the number
	// of in-window relaxations a node needs before its layer is final.
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
	// watermark is the smallest unexecuted node ID (len(Nodes) when done).
	// Everything below it is history: no look-ahead or frontier operation
	// ever looks at IDs under the watermark again.
	watermark int

	// WalkAhead scratch, reused across calls so the steady state allocates
	// nothing. waMark is an epoch stamp: entries of waDepth/waSeen are valid
	// only where waMark equals the current generation, which makes clearing
	// between calls O(touched) instead of O(nodes).
	waDepth []int32
	waSeen  []int32
	waMark  []uint32
	waGen   uint32
	waHeap  []int32
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
	for gi, gate := range c.Gates {
		if !gate.Kind.IsTwoQubit() {
			continue
		}
		id := len(g.Nodes)
		n := Node{
			ID: id, GateIndex: gi, Gate: gate,
			Succ: edgeBacking[4*id : 4*id : 4*id+2],
			Pred: edgeBacking[4*id+2 : 4*id+2 : 4*id+4],
		}
		g.Nodes = append(g.Nodes, n)
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
// executed flags, frontier, watermark) and nothing else.
func (g *Graph) Reset() {
	if g.indegree == nil {
		n := len(g.Nodes)
		g.indegree = make([]int, n)
		g.executed = make([]bool, n)
		g.waDepth = make([]int32, n)
		g.waSeen = make([]int32, n)
		g.waMark = make([]uint32, n)
	}
	g.frontier = g.frontier[:0]
	g.nLeft = len(g.Nodes)
	g.watermark = 0
	for _, n := range g.Nodes {
		g.executed[n.ID] = false
		g.indegree[n.ID] = len(n.Pred)
		if len(n.Pred) == 0 {
			// IDs ascend, so appends keep the frontier sorted.
			g.frontier = append(g.frontier, n.ID)
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

// FirstUnexecuted returns the smallest unexecuted node ID — the watermark
// below which every node has executed — or len(Nodes) when the graph is
// done. Look-ahead windows start no earlier than here.
func (g *Graph) FirstUnexecuted() int { return g.watermark }

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
	for g.watermark < len(g.Nodes) && g.executed[g.watermark] {
		g.watermark++
	}
	for _, s := range g.Nodes[id].Succ {
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
// i+1. Used by tests and by the look-ahead weight table.
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

// WalkAhead visits unexecuted nodes in the first k layers *of the remaining
// graph* (layer = longest unexecuted-predecessor path), calling visit for
// each with its remaining-layer index, in ascending node-ID order. This
// implements the "first k layers of the DAG" window that the SWAP-insertion
// weight table scans (§3.3).
//
// The traversal is O(window): it expands the dependency graph outwards from
// the current frontier (every unexecuted node is reachable from it through
// unexecuted predecessors, and none sits below the FirstUnexecuted
// watermark) and stops expanding at layer k, so nodes beyond the window are
// never touched — not even the already-executed prefix the pre-watermark
// implementation rescanned from ID 0 on every call. All scratch state lives
// on the Graph and is epoch-cleared, so steady-state calls allocate nothing.
//
// A node's layer is final once all its unexecuted predecessors have been
// relaxed (indegree tracks exactly that count); nodes are released into a
// min-ID heap at that moment. Because predecessors always carry smaller IDs,
// release order never overtakes ID order, so popping the heap yields the
// same ascending-ID visit sequence the naive full scan produced. A node kept
// back by an out-of-window predecessor is itself beyond the window (its
// layer exceeds the predecessor's) and is correctly never released.
//
//mussti:hotpath
func (g *Graph) WalkAhead(k int, visit func(layer int, n *Node)) {
	if k <= 0 || g.nLeft == 0 {
		return
	}
	g.waGen++
	if g.waGen == 0 { // epoch counter wrapped: invalidate all stale marks
		for i := range g.waMark {
			g.waMark[i] = 0
		}
		g.waGen = 1
	}
	heap := g.waHeap[:0]
	for _, id := range g.frontier {
		g.waMark[id] = g.waGen
		g.waDepth[id] = 0
		heap = waHeapPush(heap, int32(id))
	}
	for len(heap) > 0 {
		var id int32
		id, heap = waHeapPop(heap)
		d := g.waDepth[id]
		if int(d) >= k {
			// Beyond the window: successors are deeper still, so the whole
			// subtree is pruned by simply not expanding it.
			continue
		}
		visit(int(d), &g.Nodes[id])
		for _, s := range g.Nodes[id].Succ {
			if g.waMark[s] != g.waGen {
				g.waMark[s] = g.waGen
				g.waDepth[s] = d + 1
				g.waSeen[s] = 1
			} else {
				if d+1 > g.waDepth[s] {
					g.waDepth[s] = d + 1
				}
				g.waSeen[s]++
			}
			if int(g.waSeen[s]) == g.indegree[s] {
				heap = waHeapPush(heap, int32(s))
			}
		}
	}
	g.waHeap = heap[:0] // keep capacity for the next call
}

// waHeapPush adds id to the binary min-heap h.
//
//mussti:hotpath
//mussti:inline
func waHeapPush(h []int32, id int32) []int32 {
	h = append(h, id)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// waHeapPop removes and returns the minimum of h.
//
//mussti:hotpath
func waHeapPop(h []int32) (int32, []int32) {
	min := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return min, h
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
