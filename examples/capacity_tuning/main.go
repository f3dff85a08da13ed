// Capacity tuning: co-design the EML-QCCD trap capacity with a target
// application, the §5.3 analysis of the paper. Small traps force extra
// shuttling (heating the zones); big traps stretch the ion chains and
// degrade every MS gate by 1−εN². The sweet spot sits in between — the
// paper recommends 14–18 ions per trap.
//
// The second sweep varies the optical zone's port count separately,
// showing the trade-off of a port-limited ion-photon interface.
//
//	go run ./examples/capacity_tuning
package main

import (
	"context"
	"fmt"
	"log"

	"mussti"
)

func main() {
	app := "BV_n128"
	c := mussti.Benchmark(app)

	fmt.Printf("trap-capacity sweep for %s (uniform zones):\n", app)
	fmt.Println("cap   shuttles   exec(µs)     fidelity")
	for capacity := 12; capacity <= 20; capacity += 2 {
		cfg := mussti.DeviceConfigFor(c.NumQubits)
		cfg.TrapCapacity = capacity
		m := compile(c, cfg)
		fmt.Printf("%-4d  %-9d  %-11.0f  %.4g\n", capacity, m.Shuttles, m.MakespanUS, m.Fidelity.Value())
	}

	fmt.Printf("\noptical-port sweep for %s (trap capacity 16):\n", app)
	fmt.Println("ports  shuttles   fiber   fidelity")
	for ports := 2; ports <= 16; ports *= 2 {
		cfg := mussti.DeviceConfigFor(c.NumQubits)
		cfg.OpticalCapacity = ports
		m := compile(c, cfg)
		fmt.Printf("%-5d  %-9d  %-6d  %.4g\n", ports, m.Shuttles, m.FiberGates, m.Fidelity.Value())
	}
}

func compile(c *mussti.Circuit, cfg mussti.DeviceConfig) mussti.Metrics {
	comp, err := mussti.LookupCompiler("mussti")
	if err != nil {
		log.Fatal(err)
	}
	res, err := comp.Compile(context.Background(), c, mussti.NewDevice(cfg), nil)
	if err != nil {
		log.Fatal(err)
	}
	return res.Metrics
}
