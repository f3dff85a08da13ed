package eval

import (
	"bytes"
	"encoding/csv"
	"testing"
	"time"
)

func TestWriteMeasurementsCSV(t *testing.T) {
	ms := []Measurement{
		{App: "GHZ_n32", Compiler: "MUSS-TI", Qubits: 32, TwoQubit: 31,
			Shuttles: 3, TimeUS: 2075, Fidelity: 0.815, Log10F: -0.0888,
			CompileTime: 5 * time.Millisecond},
		{App: "GHZ_n32", Compiler: "QCCD-Dai", Qubits: 32, TwoQubit: 31,
			Shuttles: 6, TimeUS: 2535, Fidelity: 0.7525, Log10F: -0.1235},
	}
	var buf bytes.Buffer
	if err := WriteMeasurementsCSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(records))
	}
	if records[0][0] != "app" || records[0][4] != "shuttles" {
		t.Errorf("header = %v", records[0])
	}
	if records[1][1] != "MUSS-TI" || records[1][4] != "3" {
		t.Errorf("row 1 = %v", records[1])
	}
	if records[2][1] != "QCCD-Dai" {
		t.Errorf("row 2 = %v", records[2])
	}
}
