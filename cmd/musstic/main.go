// Command musstic compiles a single quantum circuit for an EML-QCCD device
// with the MUSS-TI scheduler and prints a compilation report.
//
// The circuit comes either from a named paper benchmark or an OpenQASM 2.0
// file (QASMBench subset):
//
//	musstic -bench QFT_n32
//	musstic -qasm adder.qasm -mapping trivial -no-swap-insert
//	musstic -bench SQRT_n117 -modules 8 -capacity 12 -trace
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mussti"
)

func main() {
	var (
		benchName    = flag.String("bench", "", "paper benchmark name, e.g. QFT_n32 (see -families)")
		qasmPath     = flag.String("qasm", "", "OpenQASM 2.0 file to compile")
		families     = flag.Bool("families", false, "list benchmark families and exit")
		mapping      = flag.String("mapping", "sabre", "initial mapping: trivial | sabre")
		noSwapInsert = flag.Bool("no-swap-insert", false, "disable SWAP-gate insertion (§3.3)")
		lookAhead    = flag.Int("k", 8, "SWAP-insertion look-ahead window in DAG layers")
		threshold    = flag.Int("t", 4, "SWAP-insertion weight threshold")
		modules      = flag.Int("modules", 0, "module count (0 = sized for the circuit)")
		capacity     = flag.Int("capacity", 16, "trap capacity")
		opticalCap   = flag.Int("optical-capacity", 0, "optical-zone port capacity (0 = trap capacity)")
		opticalZones = flag.Int("optical-zones", 1, "optical zones per module")
		trace        = flag.Bool("trace", false, "print the op-level schedule")
		lower        = flag.Bool("lower", false, "lower to the native gate set (MS + rotations) and clean up 1q gates first")
		report       = flag.Bool("report", false, "print the per-zone activity report")
		scheduleOut  = flag.String("schedule-out", "", "write the schedule as JSON to this file")
		verify       = flag.Bool("verify", false, "independently re-verify the schedule before reporting")
	)
	flag.Parse()

	if *families {
		fmt.Println(strings.Join(mussti.BenchmarkFamilies(), " "))
		return
	}

	c, err := loadCircuit(*benchName, *qasmPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstic:", err)
		os.Exit(2)
	}
	if *lower {
		c = mussti.OptimizeOneQubit(mussti.LowerToNative(c))
	}

	cfg := mussti.DeviceConfigFor(c.NumQubits)
	if *modules > 0 {
		cfg.Modules = *modules
	}
	cfg.TrapCapacity = *capacity
	cfg.OpticalCapacity = *opticalCap
	cfg.OpticalZones = *opticalZones
	dev, err := mussti.NewDeviceErr(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstic:", err)
		os.Exit(2)
	}

	opts := mussti.NewCompileConfig()
	switch strings.ToLower(*mapping) {
	case "trivial":
		opts.Mapping = mussti.MappingTrivial
	case "sabre":
		opts.Mapping = mussti.MappingSABRE
	default:
		fmt.Fprintf(os.Stderr, "musstic: unknown mapping %q (want trivial or sabre)\n", *mapping)
		os.Exit(2)
	}
	opts.SwapInsertion = !*noSwapInsert
	opts.LookAhead = *lookAhead
	opts.SwapThreshold = *threshold
	opts.Trace = *trace || *report || *scheduleOut != "" || *verify

	comp, err := mussti.LookupCompiler("mussti")
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstic:", err)
		os.Exit(1)
	}
	res, err := comp.Compile(context.Background(), c, dev, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstic:", err)
		os.Exit(1)
	}

	st := c.Stats()
	fmt.Printf("circuit          %s (%d qubits, %d gates: %d 1q, %d 2q, depth %d)\n",
		c.Name, st.Qubits, st.Gates, st.OneQubit, st.TwoQubit, st.Depth)
	effOptical := cfg.OpticalCapacity
	if effOptical <= 0 || effOptical > cfg.TrapCapacity {
		effOptical = cfg.TrapCapacity
	}
	fmt.Printf("device           %d modules, trap capacity %d, optical %d×%d ports\n",
		cfg.Modules, cfg.TrapCapacity, cfg.OpticalZones, effOptical)
	fmt.Printf("options          mapping=%s swap-insert=%v k=%d T=%d\n",
		opts.Mapping, opts.SwapInsertion, opts.LookAhead, opts.SwapThreshold)
	m := res.Metrics
	fmt.Printf("shuttles         %d (+%d chain swaps)\n", m.Shuttles, m.ChainSwaps)
	fmt.Printf("fiber gates      %d (%d from inserted SWAPs)\n", m.FiberGates, 3*m.InsertedSwaps)
	fmt.Printf("execution time   %.0f µs\n", m.MakespanUS)
	fmt.Printf("fidelity         %.3g (log10 %.2f)\n", m.Fidelity.Value(), m.Fidelity.Log10())
	fmt.Printf("compile time     %s\n", res.CompileTime)

	if *verify {
		if err := mussti.VerifySchedule(c, dev, res.InitialMapping, res.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "musstic: schedule verification FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("verification     ok (occupancy, legality, program order, timing)")
	}

	if *report && res.Report != nil {
		fmt.Println()
		if err := res.Report.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "musstic:", err)
			os.Exit(1)
		}
	}

	if *scheduleOut != "" {
		f, err := os.Create(*scheduleOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "musstic:", err)
			os.Exit(1)
		}
		if err := mussti.WriteScheduleJSON(f, c.NumQubits, res.Trace); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "musstic:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "musstic:", err)
			os.Exit(1)
		}
		fmt.Printf("schedule written  %s (%d ops)\n", *scheduleOut, len(res.Trace))
	}

	if *trace {
		fmt.Println("\nschedule:")
		for _, op := range res.Trace {
			fmt.Printf("  t=%9.1f +%7.1f  %-9s q=%v zone=%d", op.StartUS, op.DurUS, op.Kind, op.Qubits, op.Zone)
			if op.ZoneB >= 0 {
				fmt.Printf(" zoneB=%d", op.ZoneB)
			}
			fmt.Println()
		}
	}
}

func loadCircuit(benchName, qasmPath string) (*mussti.Circuit, error) {
	switch {
	case benchName != "" && qasmPath != "":
		return nil, fmt.Errorf("use either -bench or -qasm, not both")
	case benchName != "":
		return mussti.BenchmarkByName(benchName)
	case qasmPath != "":
		f, err := os.Open(qasmPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		name := strings.TrimSuffix(filepath.Base(qasmPath), filepath.Ext(qasmPath))
		return mussti.ParseQASM(name, f)
	default:
		return nil, fmt.Errorf("need -bench NAME or -qasm FILE (try -families)")
	}
}
