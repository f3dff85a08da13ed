package eval

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteMeasurementsCSV writes measurements as CSV with a header row, the
// interchange format for plotting the figures outside Go.
func WriteMeasurementsCSV(w io.Writer, ms []Measurement) error {
	cw := csv.NewWriter(w)
	header := []string{
		"app", "compiler", "qubits", "two_qubit_gates",
		"shuttles", "chain_swaps", "inserted_swaps", "fiber_gates",
		"time_us", "fidelity", "log10_fidelity", "compile_seconds",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, m := range ms {
		rec := []string{
			m.App, m.Compiler,
			strconv.Itoa(m.Qubits), strconv.Itoa(m.TwoQubit),
			strconv.Itoa(m.Shuttles), strconv.Itoa(m.ChainSwaps),
			strconv.Itoa(m.InsertedSwaps), strconv.Itoa(m.FiberGates),
			strconv.FormatFloat(m.TimeUS, 'f', 0, 64),
			strconv.FormatFloat(m.Fidelity, 'g', 6, 64),
			strconv.FormatFloat(m.Log10F, 'f', 3, 64),
			strconv.FormatFloat(m.CompileTime.Seconds(), 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
