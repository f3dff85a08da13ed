package main

import (
	"reflect"
	"strings"
	"testing"

	"mussti"
)

func TestPlanRoundRepeatsUnderASeed(t *testing.T) {
	catalog := serviceCatalog()
	a := planRound(7, 2, catalog)
	b := planRound(7, 2, catalog)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and round give different requests")
	}
	if reflect.DeepEqual(a, planRound(8, 2, catalog)) {
		t.Fatal("another seed gives the same requests")
	}
	if reflect.DeepEqual(a, planRound(7, 3, catalog)) {
		t.Fatal("another round gives the same requests")
	}
}

func TestPlanRoundShares(t *testing.T) {
	catalog := serviceCatalog()
	for seed := uint64(1); seed <= 5; seed++ {
		reqs := planRound(seed, 0, catalog)
		if len(reqs) != svcPerRound {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(reqs), svcPerRound)
		}
		var cold, lower, stream int
		apps := map[string]bool{}
		names := map[string]bool{}
		for i, q := range reqs {
			if i > 0 && q.at < reqs[i-1].at {
				t.Fatalf("seed %d: arrivals out of order at %d", seed, i)
			}
			if q.at < 0 || q.at.Seconds() > svcPerRound/svcRate {
				t.Fatalf("seed %d: arrival %v outside the round", seed, q.at)
			}
			if q.stream {
				stream++
			}
			if q.app != "" {
				apps[q.app] = true
				continue
			}
			cold++
			if q.lower {
				lower++
			}
			if names[q.name] {
				t.Fatalf("seed %d: cold name %s repeats", seed, q.name)
			}
			names[q.name] = true
		}
		if cold != len(coldFamilies())*coldStrata || 10*cold != 3*svcPerRound || lower != int(float64(cold)*svcLowerShare) || stream != int(svcPerRound*svcStreamShare) {
			t.Fatalf("seed %d: %d cold, %d lowered, %d streamed", seed, cold, lower, stream)
		}
		if len(apps) != len(catalog) {
			t.Fatalf("seed %d: %d of %d catalog keys requested", seed, len(apps), len(catalog))
		}
	}
}

// TestColdQASMCounts parses each generated circuit with the program's
// parser and checks the counts the benchmark wrote down, before and after
// lowering to the native gate set.
func TestColdQASMCounts(t *testing.T) {
	families := map[string]bool{}
	for _, q := range planRound(3, 0, serviceCatalog()) {
		if q.app != "" {
			continue
		}
		families[q.cold.family] = true
		c, err := mussti.ParseQASM(q.name, strings.NewReader(q.qasm))
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if c.NumQubits != q.cold.qubits || c.NumQubits < coldMinQubits || c.NumQubits > coldMaxQubits {
			t.Fatalf("%s: %d qubits, wrote %d", q.name, c.NumQubits, q.cold.qubits)
		}
		k, err := countGates(c)
		if err != nil {
			t.Fatal(err)
		}
		if k != q.cold.k {
			t.Fatalf("%s: parsed %+v, wrote %+v", q.name, k, q.cold.k)
		}
		lk, err := countGates(mussti.OptimizeOneQubit(mussti.LowerToNative(c)))
		if err != nil {
			t.Fatal(err)
		}
		if lk.twoQubit != q.cold.lowered2Q || lk.serial2US != q.cold.lowered2US {
			t.Fatalf("%s: lowered to %d two-qubit gates (serial %v), want %d (%v)",
				q.name, lk.twoQubit, lk.serial2US, q.cold.lowered2Q, q.cold.lowered2US)
		}
	}
	if len(families) != 8 {
		t.Fatalf("a round's cold circuits come from %d Fig. 6 families: %v", len(families), families)
	}
}

// TestColdStrata shows that every round holds coldStrata circuits per
// Fig. 6 point, one at each of the evenly spaced qubit counts.
func TestColdStrata(t *testing.T) {
	want := map[[2]any]int{}
	for _, f := range coldFamilies() {
		for n := coldMinQubits; n <= coldMaxQubits; n += 8 {
			want[[2]any{f, n}]++
		}
	}
	for _, seed := range []uint64{1, 2} {
		got := map[[2]any]int{}
		for _, q := range planRound(seed, 0, serviceCatalog()) {
			if q.app == "" {
				got[[2]any{q.cold.family, q.cold.qubits}]++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: cold circuits per family and size %v, want %v", seed, got, want)
		}
	}
}

// TestColdCircuitsKeepTheirFamily shows that relabelling the qubits keeps
// the family's gates: the cold circuit has the generator's gate counts.
func TestColdCircuitsKeepTheirFamily(t *testing.T) {
	for _, q := range planRound(4, 1, serviceCatalog()) {
		if q.app != "" {
			continue
		}
		k, err := countGates(coldGenerators[q.cold.family](q.cold.qubits))
		if err != nil {
			t.Fatal(err)
		}
		if k.oneQubit != q.cold.k.oneQubit || k.twoQubit != q.cold.k.twoQubit || k.measures != q.cold.k.measures {
			t.Fatalf("%s (%s, %d qubits): %+v, the generator gives %+v", q.name, q.cold.family, q.cold.qubits, q.cold.k, k)
		}
	}
}
