package dag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mussti/internal/circuit"
)

func chainCircuit(n int) *circuit.Circuit {
	c := circuit.New("chain", n)
	for i := 0; i+1 < n; i++ {
		c.CX(i, i+1)
	}
	return c
}

func TestBuildChain(t *testing.T) {
	g := Build(chainCircuit(5)) // gates (0,1)(1,2)(2,3)(3,4): a path
	if len(g.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(g.Nodes))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	f := g.Frontier()
	if len(f) != 1 || f[0] != 0 {
		t.Errorf("frontier = %v, want [0]", f)
	}
	for i := 0; i < 4; i++ {
		f := g.Frontier()
		if len(f) != 1 || f[0] != i {
			t.Fatalf("step %d: frontier = %v", i, f)
		}
		g.Execute(i)
	}
	if !g.Done() {
		t.Error("graph not done after executing all nodes")
	}
}

func TestBuildIgnoresOneQubitGates(t *testing.T) {
	c := circuit.New("mix", 3)
	c.H(0)
	c.CX(0, 1)
	c.X(1)
	c.CZ(1, 2)
	c.Measure(2)
	g := Build(c)
	if len(g.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(g.Nodes))
	}
	if g.Nodes[0].GateIndex != 1 || g.Nodes[1].GateIndex != 3 {
		t.Errorf("gate indices = %d,%d want 1,3", g.Nodes[0].GateIndex, g.Nodes[1].GateIndex)
	}
}

func TestParallelFrontier(t *testing.T) {
	c := circuit.New("par", 4)
	c.CX(0, 1)
	c.CX(2, 3)
	c.CX(1, 2)
	g := Build(c)
	f := g.Frontier()
	if len(f) != 2 || f[0] != 0 || f[1] != 1 {
		t.Fatalf("frontier = %v, want [0 1]", f)
	}
	g.Execute(1)
	f = g.Frontier()
	if len(f) != 1 || f[0] != 0 {
		t.Fatalf("after exec 1: frontier = %v, want [0]", f)
	}
	g.Execute(0)
	f = g.Frontier()
	if len(f) != 1 || f[0] != 2 {
		t.Fatalf("after exec 0: frontier = %v, want [2]", f)
	}
}

func TestExecuteOutOfOrderPanics(t *testing.T) {
	g := Build(chainCircuit(4))
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Execute did not panic")
		}
	}()
	g.Execute(2)
}

func TestExecuteTwicePanics(t *testing.T) {
	g := Build(chainCircuit(3))
	g.Execute(0)
	defer func() {
		if recover() == nil {
			t.Error("double Execute did not panic")
		}
	}()
	g.Execute(0)
}

func TestReset(t *testing.T) {
	g := Build(chainCircuit(4))
	g.Execute(0)
	g.Execute(1)
	g.Reset()
	if g.Remaining() != 3 {
		t.Errorf("remaining after reset = %d, want 3", g.Remaining())
	}
	f := g.Frontier()
	if len(f) != 1 || f[0] != 0 {
		t.Errorf("frontier after reset = %v, want [0]", f)
	}
}

func TestLayers(t *testing.T) {
	c := circuit.New("layers", 4)
	c.CX(0, 1) // layer 0
	c.CX(2, 3) // layer 0
	c.CX(1, 2) // layer 1
	c.CX(0, 1) // layer 2 (after node 2 via qubit 1, after node 0 via qubit 0 -> max+1)
	g := Build(c)
	layers := g.Layers()
	if len(layers) != 3 {
		t.Fatalf("layers = %d, want 3: %v", len(layers), layers)
	}
	if len(layers[0]) != 2 || len(layers[1]) != 1 || len(layers[2]) != 1 {
		t.Errorf("layer sizes = %d/%d/%d, want 2/1/1", len(layers[0]), len(layers[1]), len(layers[2]))
	}
	if g.CriticalPathLen() != 3 {
		t.Errorf("critical path = %d, want 3", g.CriticalPathLen())
	}
}

func TestAheadOnWindow(t *testing.T) {
	g := Build(chainCircuit(10)) // 9 nodes in a path: layer i = node i
	var seen []int
	g.AheadOn(1, 3, func(layer int, n *Node) { // qubit 1 is on nodes 0 and 1
		seen = append(seen, n.ID)
		if layer != n.ID {
			t.Errorf("node %d reported layer %d", n.ID, layer)
		}
	})
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("walked %v, want [0 1]", seen)
	}
	seen = nil
	g.AheadOn(5, 3, func(int, *Node) { seen = append(seen, 5) })
	if len(seen) != 0 {
		t.Errorf("qubit 5 (nodes 4, 5) is beyond a 3-layer window, walked %v", seen)
	}
	// After executing node 0, the window shifts.
	g.Execute(0)
	seen = nil
	g.AheadOnPair(2, 3, 2, func(layer int, n *Node) { seen = append(seen, n.ID) })
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("walked %v after executing node 0, want [1 2]", seen)
	}
}

func TestAheadOnZeroWindow(t *testing.T) {
	g := Build(chainCircuit(4))
	called := false
	g.AheadOn(1, 0, func(int, *Node) { called = true })
	g.AheadOnPair(1, 2, 0, func(int, *Node) { called = true })
	if called {
		t.Error("k=0 walked nodes")
	}
}

// randomCircuit builds a deterministic pseudo-random circuit for property
// tests.
func randomCircuit(seed int64, nQubits, nGates int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("rand", nQubits)
	for i := 0; i < nGates; i++ {
		switch rng.Intn(4) {
		case 0:
			c.H(rng.Intn(nQubits))
		default:
			a := rng.Intn(nQubits)
			b := rng.Intn(nQubits)
			for b == a {
				b = rng.Intn(nQubits)
			}
			c.MS(a, b)
		}
	}
	return c
}

func TestPropertyGraphValid(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCircuit(seed, 8, 60)
		g := Build(c)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFrontierDrainsInAnyOrder(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		c := randomCircuit(seed, 6, 40)
		g := Build(c)
		rng := rand.New(rand.NewSource(int64(pick)))
		steps := 0
		for !g.Done() {
			fr := g.Frontier()
			if len(fr) == 0 {
				return false // deadlock: not a DAG
			}
			g.Execute(fr[rng.Intn(len(fr))])
			steps++
			if steps > len(g.Nodes) {
				return false
			}
		}
		return g.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyExecutionRespectsQubitOrder(t *testing.T) {
	// Executing always the smallest frontier node must see, per qubit,
	// strictly increasing gate indices.
	f := func(seed int64) bool {
		c := randomCircuit(seed, 7, 50)
		g := Build(c)
		lastGate := make(map[int]int)
		for !g.Done() {
			id := g.Frontier()[0]
			n := g.Nodes[id]
			for _, q := range n.Gate.Operands() {
				if prev, ok := lastGate[q]; ok && prev >= n.GateIndex {
					return false
				}
				lastGate[q] = n.GateIndex
			}
			g.Execute(id)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLayersPartitionNodes(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCircuit(seed, 8, 80)
		g := Build(c)
		layers := g.Layers()
		count := 0
		seen := make(map[int]bool)
		for _, l := range layers {
			for _, id := range l {
				if seen[id] {
					return false
				}
				seen[id] = true
				count++
			}
		}
		return count == len(g.Nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestByQubitOrdering(t *testing.T) {
	c := circuit.New("bq", 3)
	c.CX(0, 1)
	c.CX(1, 2)
	c.CX(0, 2)
	g := Build(c)
	want := map[int][]int{0: {0, 2}, 1: {0, 1}, 2: {1, 2}}
	for q, ids := range want {
		got := g.ByQubit[q]
		if len(got) != len(ids) {
			t.Fatalf("qubit %d: nodes %v, want %v", q, got, ids)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Errorf("qubit %d: nodes %v, want %v", q, got, ids)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	c := circuit.New("empty", 3)
	c.H(0)
	g := Build(c)
	if !g.Done() || g.Remaining() != 0 {
		t.Error("graph with no 2q gates should be done")
	}
	if f := g.Frontier(); len(f) != 0 {
		t.Errorf("frontier = %v, want empty", f)
	}
}
