// Distributed GHZ: entangle a 128-qubit GHZ chain across four EML-QCCD
// modules and watch how the compiler uses the photonic link — fiber gates
// where the chain crosses module boundaries, ordinary MS gates inside each
// module, and the zone traffic the multi-level scheduler generates.
//
//	go run ./examples/distributed_ghz
package main

import (
	"context"
	"fmt"
	"log"

	"mussti"
)

func main() {
	c := mussti.Benchmark("GHZ_n128")
	cfg := mussti.DeviceConfigFor(c.NumQubits)
	dev := mussti.NewDevice(cfg)
	fmt.Printf("device: %d modules × (2 storage + 1 operation + 1 optical), trap capacity %d\n\n",
		cfg.Modules, cfg.TrapCapacity)

	comp, err := mussti.LookupCompiler("mussti")
	if err != nil {
		log.Fatal(err)
	}
	res, err := comp.Compile(context.Background(), c, dev, mussti.NewCompileConfig(mussti.WithTrace()))
	if err != nil {
		log.Fatal(err)
	}

	m := res.Metrics
	fmt.Printf("two-qubit gates: %d local MS + %d fiber-entangled\n", m.Gates2, m.FiberGates)
	fmt.Printf("shuttles:        %d\n", m.Shuttles)
	fmt.Printf("execution time:  %.0f µs\n", m.MakespanUS)
	fmt.Printf("fidelity:        %.4f\n\n", m.Fidelity.Value())

	// Show where the photonic link fired: the chain gates whose qubits sit
	// on different modules ("fiber") and the three MS gates of every SWAP
	// the compiler inserted ("swapfiber").
	fmt.Println("fiber gates on the entanglement module:")
	for _, op := range res.Trace {
		note := ""
		switch op.Kind {
		case "fiber":
		case "swapfiber":
			note = "  part of an inserted SWAP"
		default:
			continue
		}
		fmt.Printf("  t=%8.0f µs  q%-3d — q%-3d  (optical zones %d ↔ %d)%s\n",
			op.StartUS, op.Qubits[0], op.Qubits[1], op.Zone, op.ZoneB, note)
	}

	// Module occupancy after the run: the GHZ chain stays clustered.
	perModule := make(map[int]int)
	for _, z := range res.FinalMapping {
		perModule[dev.Zone(z).Module]++
	}
	fmt.Println("\nfinal ions per module:")
	for mdl := 0; mdl < cfg.Modules; mdl++ {
		fmt.Printf("  module %d: %d ions\n", mdl, perModule[mdl])
	}
}
