package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"mussti"
	"mussti/internal/circuit/bench"
)

// The service-mixed request mix. Every round has exactly these shares, so
// every run attempts the same operations in the same proportions; the seed
// picks the keys, the circuits, the order and the arrival times. The rate
// is chosen so the service stays busy well under half the time; the cold
// circuits are the Fig. 6 families at 16 to 64 qubits, 30 % of the
// requests. The other shares are assumptions about the traffic, not
// measurements of it (see README).
const (
	svcRate        = 80.0 // requests per second, Poisson arrivals
	svcPerRound    = 420  // requests per round: 5.25 s of arrivals
	coldStrata     = 7    // cold circuits per Fig. 6 point and round: 16, 24, ..., 64 qubits
	svcLowerShare  = 0.50 // of the cold requests, sent with "lower":true
	svcStreamShare = 0.15 // of all requests, sent with "stream":true
	svcZipfS       = 1.2  // skew of the hot-key choice
	coldMinQubits  = 16
	coldMaxQubits  = 64
)

// A round's cold requests are coldStrata circuits for each of the 18
// Fig. 6 points, 126 of the 420 requests: the 30 % cold share.

// svcRequest is one planned request of a round.
type svcRequest struct {
	at     time.Duration // due time, from the round's start
	app    string        // hot: a built-in benchmark; empty for cold
	qasm   string        // cold: inline OpenQASM 2.0
	name   string        // cold: the circuit's label, unique per run
	lower  bool
	stream bool
	cold   coldCircuit
}

// coldCircuit is what the benchmark knows about a QASM circuit it wrote.
type coldCircuit struct {
	family string
	qubits int
	k      gateCounts // counted in the circuit as written
	// lowered2Q and lowered2US are the two-qubit count and its serial
	// bound after lowering to the native gate set, where a SWAP becomes
	// three MS gates and every other two-qubit gate one.
	lowered2Q  int
	lowered2US float64
}

// coldGenerators are the generators of the Fig. 6 families. They are
// called directly, so the cold circuits stay out of the program's
// memoized benchmark cache.
var coldGenerators = map[string]func(int) *mussti.Circuit{
	"Adder": bench.Adder, "BV": bench.BV, "GHZ": bench.GHZ, "QAOA": bench.QAOA,
	"QFT": bench.QFT, "SQRT": bench.SQRT, "RAN": bench.RAN, "SC": bench.SC,
}

// coldFamilies lists the family of every Fig. 6 point, so the cold
// requests weigh the families as the paper's suite does (GHZ three times
// in 18, QFT once).
func coldFamilies() []string {
	var out []string
	for _, sc := range paperScales {
		for _, app := range sc.apps {
			out = append(out, app[:strings.LastIndex(app, "_n")])
		}
	}
	return out
}

// roundRNG returns the generator for one round of one seed; rounds draw
// from disjoint streams, so a round's inputs do not depend on how many
// rounds ran before it.
func roundRNG(seed uint64, round int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0xa0761d6478bd642f^uint64(round)))
}

// planRound draws one round of the service mix: the hot requests cover
// every catalog key at least once and draw the rest Zipf-skewed over the
// catalog; the cold requests are coldStrata per Fig. 6 point, one at each
// of coldStrata qubit counts evenly spaced from coldMinQubits to
// coldMaxQubits, so every round compiles the same families at the same
// sizes and the seed picks their qubit labels and order; arrival times are
// a Poisson process conditioned on the round's request count (sorted
// uniform draws over the round's span).
func planRound(seed uint64, round int, catalog []string) []svcRequest {
	rng := roundRNG(seed, round)
	families := coldFamilies()
	nCold := len(families) * coldStrata
	nHot := svcPerRound - nCold
	reqs := make([]svcRequest, 0, svcPerRound)
	zipf := rand.NewZipf(rng, svcZipfS, 1, uint64(len(catalog)-1))
	for i := 0; i < nHot; i++ {
		app := catalog[i%len(catalog)]
		if i >= len(catalog) {
			app = catalog[zipf.Uint64()]
		}
		reqs = append(reqs, svcRequest{app: app})
	}
	lowered := rng.Perm(nCold)
	step := (coldMaxQubits - coldMinQubits) / (coldStrata - 1)
	for i := 0; i < nCold; i++ {
		family := families[i/coldStrata]
		n := coldMinQubits + (i%coldStrata)*step
		qasm, cc := coldQASM(rng, family, n)
		reqs = append(reqs, svcRequest{qasm: qasm, name: fmt.Sprintf("cold-s%d-r%d-i%d", seed, round, i),
			cold: cc, lower: lowered[i] < int(float64(nCold)*svcLowerShare)})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for i := 0; i < int(svcPerRound*svcStreamShare); i++ {
		reqs[i].stream = true
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	span := float64(svcPerRound) / svcRate
	at := make([]float64, len(reqs))
	for i := range at {
		at[i] = rng.Float64() * span
	}
	sort.Float64s(at)
	for i := range reqs {
		reqs[i].at = time.Duration(at[i] * float64(time.Second))
	}
	return reqs
}

// coldQASM writes a cold circuit: the family's generator at n qubits,
// with the qubits relabelled by a random permutation, so every circuit is
// new to the service while keeping its family's gate density and
// communication pattern.
func coldQASM(rng *rand.Rand, family string, n int) (string, coldCircuit) {
	src := coldGenerators[family](n)
	perm := rng.Perm(n)
	c := mussti.NewCircuit(src.Name, n)
	busy2 := make([]float64, n)
	cc := coldCircuit{family: family, qubits: n}
	for _, g := range src.Gates {
		for j, q := range g.Qubits {
			if q >= 0 {
				g.Qubits[j] = perm[q]
			}
		}
		c.Append(g)
		if g.Kind.IsTwoQubit() {
			ms := 1
			if g.Kind == mussti.KindSwap {
				ms = 3
			}
			cc.lowered2Q += ms
			for _, q := range g.Qubits {
				busy2[q] += float64(ms) * gate2US
			}
		}
	}
	for _, b := range busy2 {
		cc.lowered2US = max(cc.lowered2US, b)
	}
	var err error
	if cc.k, err = countGates(c); err != nil {
		panic(err) // the generators emit only known kinds
	}
	var b strings.Builder
	if err := c.WriteQASM(&b); err != nil {
		panic(err) // a strings.Builder does not fail
	}
	return b.String(), cc
}
