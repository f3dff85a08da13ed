package dag

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveFrontier recomputes the executable set from scratch: unexecuted
// nodes whose predecessors have all executed, in ascending ID order — the
// specification the incremental sorted frontier must match.
func naiveFrontier(g *Graph) []int {
	var out []int
	for _, n := range g.Nodes {
		if g.Executed(n.ID) {
			continue
		}
		ready := true
		for _, p := range n.Pred {
			if !g.Executed(p) {
				ready = false
				break
			}
		}
		if ready {
			out = append(out, n.ID)
		}
	}
	return out
}

// naiveWalkAhead is the reference look-ahead: a full ascending-ID scan over
// all unexecuted nodes computing each one's remaining layer (longest path
// through unexecuted predecessors), visiting those with layer < k — the
// whole "first k layers of the DAG" window of §3.3.
func naiveWalkAhead(g *Graph, k int, visit func(layer int, n *Node)) {
	if k <= 0 {
		return
	}
	depth := make(map[int]int)
	for id := range g.Nodes {
		if g.Executed(id) {
			continue
		}
		d := 0
		for _, p := range g.Nodes[id].Pred {
			if g.Executed(p) {
				continue
			}
			if pd, ok := depth[p]; ok && pd+1 > d {
				d = pd + 1
			}
		}
		depth[id] = d
		if d < k {
			visit(d, &g.Nodes[id])
		}
	}
}

type visitRec struct{ layer, id int }

// naiveAhead is the reference answer for AheadOn and AheadOnPair: the
// whole window win (collected from naiveWalkAhead) filtered to the nodes
// touching any of qs.
func naiveAhead(g *Graph, win []visitRec, qs ...int) []visitRec {
	var out []visitRec
	for _, r := range win {
		for _, q := range qs {
			if g.Nodes[r.id].Gate.Touches(q) {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

func naiveWindow(g *Graph, k int) []visitRec {
	var out []visitRec
	naiveWalkAhead(g, k, func(layer int, n *Node) { out = append(out, visitRec{layer, n.ID}) })
	return out
}

func aheadOn(g *Graph, q, k int) []visitRec {
	var out []visitRec
	g.AheadOn(q, k, func(layer int, n *Node) { out = append(out, visitRec{layer, n.ID}) })
	return out
}

func aheadOnPair(g *Graph, a, b, k int) []visitRec {
	var out []visitRec
	g.AheadOnPair(a, b, k, func(layer int, n *Node) { out = append(out, visitRec{layer, n.ID}) })
	return out
}

func equalRecs(a, b []visitRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// aheadKs mixes window sizes in one memo epoch: 1, k beyond the graph's
// depth, and repeats after both smaller and larger budgets, so capped and
// exact memos are both re-read.
var aheadKs = []int{8, 1, 3, 2, 9, 5, math.MaxInt32, 8, 1, 3}

// TestPropertyIncrementalMatchesNaive drains randomly generated circuits in
// random executable order, twice with a Reset between, and checks at every
// step that the incremental frontier and the per-qubit and pair look-ahead
// queries agree exactly (same nodes, same layers, same visit order) with
// recompute-from-scratch references.
func TestPropertyIncrementalMatchesNaive(t *testing.T) {
	f := func(seed int64, pick uint8, width uint8) bool {
		nq := 2 + int(width)%11
		c := randomCircuit(seed, nq, 20+int(width))
		g := Build(c)
		rng := rand.New(rand.NewSource(int64(pick)))
		for run := 0; run < 2; run++ {
			g.Reset()
			for {
				fr := append([]int(nil), g.Frontier()...)
				if !equalInts(fr, naiveFrontier(g)) {
					t.Logf("seed %d: frontier %v, naive %v", seed, fr, naiveFrontier(g))
					return false
				}
				for _, k := range aheadKs {
					win := naiveWindow(g, k)
					for q := 0; q < nq; q++ {
						if got, want := aheadOn(g, q, k), naiveAhead(g, win, q); !equalRecs(got, want) {
							t.Logf("seed %d run %d k=%d q=%d: %v, want %v", seed, run, k, q, got, want)
							return false
						}
					}
					a, b := rng.Intn(nq), rng.Intn(nq)
					if got, want := aheadOnPair(g, a, b, k), naiveAhead(g, win, a, b); !equalRecs(got, want) {
						t.Logf("seed %d run %d k=%d pair (%d,%d): %v, want %v", seed, run, k, a, b, got, want)
						return false
					}
				}
				if g.Done() {
					break
				}
				g.Execute(fr[rng.Intn(len(fr))])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalSurvivesReset pins that Reset restores the incremental
// structures exactly (the SABRE two-fold search replays graphs).
func TestIncrementalSurvivesReset(t *testing.T) {
	c := randomCircuit(42, 6, 50)
	g := Build(c)
	before := append([]int(nil), g.Frontier()...)
	var aheadBefore [][]visitRec
	for q := 0; q < c.NumQubits; q++ {
		aheadBefore = append(aheadBefore, aheadOn(g, q, 4))
	}
	for i := 0; i < 10 && !g.Done(); i++ {
		g.Execute(g.Frontier()[0])
	}
	g.Reset()
	if !equalInts(append([]int(nil), g.Frontier()...), before) {
		t.Errorf("frontier after reset = %v, want %v", g.Frontier(), before)
	}
	for q := 0; q < c.NumQubits; q++ {
		if got := aheadOn(g, q, 4); !equalRecs(got, aheadBefore[q]) {
			t.Errorf("qubit %d window after reset = %v, want %v", q, got, aheadBefore[q])
		}
	}
}

// TestAheadOnEpochWrap pins that a wrapped memo epoch clears the stale
// marks instead of reading memos from 2^32 executions ago as current. On a
// chain every Execute lowers every remaining layer, so a stale memo shows.
func TestAheadOnEpochWrap(t *testing.T) {
	const n = 12
	g := Build(chainCircuit(n))
	g.epoch = math.MaxUint32 - 2
	for !g.Done() {
		win := naiveWindow(g, 3)
		for q := 0; q < n; q++ {
			if got, want := aheadOn(g, q, 3), naiveAhead(g, win, q); !equalRecs(got, want) {
				t.Fatalf("epoch %d qubit %d: %v, want %v", g.epoch, q, got, want)
			}
		}
		g.Execute(g.Frontier()[0])
	}
}
