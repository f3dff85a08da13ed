package dag

import "testing"

// benchCircuit is the shared workload of the dag microbenchmarks: a dense
// pseudo-random 64-qubit, 2000-gate circuit, large enough that per-step
// costs dominate over fixed overheads.
func benchGraph(seed int64) *Graph {
	return Build(randomCircuit(seed, 64, 2000))
}

// BenchmarkExecuteDrain measures the frontier hot loop of every scheduler:
// Reset, then repeatedly read the frontier and execute its oldest node until
// the graph drains. One op is one full drain (~1500 Execute+Frontier pairs).
func BenchmarkExecuteDrain(b *testing.B) {
	g := benchGraph(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		for !g.Done() {
			g.Execute(g.Frontier()[0])
		}
	}
}

// BenchmarkFrontier measures a single frontier read mid-drain.
func BenchmarkFrontier(b *testing.B) {
	g := benchGraph(2)
	for g.Remaining() > len(g.Nodes)/2 {
		g.Execute(g.Frontier()[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += len(g.Frontier())
	}
	_ = sink
}

// BenchmarkAheadOn measures the look-ahead pattern of the SWAP-insertion
// check: after every Execute, query both operands' windows at k=8 (the
// MUSS-TI default). One op is one full drain; set against
// BenchmarkExecuteDrain it prices the queries, memo misses included, since
// every Execute starts a new memo epoch.
func BenchmarkAheadOn(b *testing.B) {
	g := benchGraph(3)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		g.Reset()
		for !g.Done() {
			n := &g.Nodes[g.Frontier()[0]]
			g.Execute(n.ID)
			for _, q := range n.Gate.Qubits {
				g.AheadOn(q, 8, func(layer int, n *Node) { sink += n.ID })
			}
		}
	}
	_ = sink
}
