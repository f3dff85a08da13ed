package main

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"mussti"
)

// compiled returns a MUSS-TI result for a built-in app with the circuit's
// own counts; the result passes every check.
func compiled(t *testing.T, app string) (gateCounts, *mussti.Result) {
	t.Helper()
	c, err := mussti.BenchmarkByName(app)
	if err != nil {
		t.Fatal(err)
	}
	k, err := countGates(c)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := mussti.LookupCompiler("mussti")
	if err != nil {
		t.Fatal(err)
	}
	res, err := comp.Compile(context.Background(), c, mussti.NewDevice(mussti.DeviceConfigFor(c.NumQubits)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(k, res); err != nil {
		t.Fatalf("an uncorrupted result fails: %v", err)
	}
	return k, res
}

func TestCountGates(t *testing.T) {
	c := mussti.NewCircuit("t", 3)
	c.Append(mussti.Gate{Kind: mussti.KindH, Qubits: [2]int{0, -1}})
	c.Append(mussti.Gate{Kind: mussti.KindCX, Qubits: [2]int{0, 1}})
	c.Append(mussti.Gate{Kind: mussti.KindCX, Qubits: [2]int{0, 2}})
	c.Append(mussti.Gate{Kind: mussti.KindMeasure, Qubits: [2]int{0, -1}})
	k, err := countGates(c)
	if err != nil {
		t.Fatal(err)
	}
	want := gateCounts{oneQubit: 1, measures: 1, twoQubit: 2, serialUS: 2*gate1US + 2*gate2US, serial2US: 2 * gate2US}
	if k != want {
		t.Fatalf("countGates = %+v, want %+v", k, want)
	}
}

func TestCheckResultRejectsMissingTwoQubitGate(t *testing.T) {
	k, res := compiled(t, "QFT_n32")
	res.Metrics.Gates2--
	if err := checkResult(k, res); err == nil || !strings.Contains(err.Error(), "two-qubit") {
		t.Fatalf("a result missing a two-qubit gate passes: %v", err)
	}
}

func TestCheckResultRejectsUncountedSwap(t *testing.T) {
	k, res := compiled(t, "QFT_n32")
	res.Metrics.FiberGates += 3 // an inserted SWAP's three fiber gates, not booked as a SWAP
	if err := checkResult(k, res); err == nil {
		t.Fatal("three extra fiber gates without an inserted SWAP pass")
	}
}

func TestCheckResultRejectsShortMakespan(t *testing.T) {
	k, res := compiled(t, "GHZ_n32")
	res.Metrics.MakespanUS = k.serialUS - 1
	if err := checkResult(k, res); err == nil || !strings.Contains(err.Error(), "makespan") {
		t.Fatalf("a makespan below the per-qubit bound passes: %v", err)
	}
}

func TestCheckBoundsRejectsFidelityAboveOne(t *testing.T) {
	if err := checkBounds(10, 20, 0.01); err == nil {
		t.Fatal("a log10 fidelity above 0 passes")
	}
	if err := checkBounds(10, 20, 0); err != nil {
		t.Fatalf("fidelity 1 fails: %v", err)
	}
}

func TestSameMeasurementRejectsDifference(t *testing.T) {
	_, ms, err := mussti.RunExperimentCollect(context.Background(), "table2", nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := ms[0]
	same := ref
	same.CompileTime += 1000
	if !sameMeasurement(ref, same) {
		t.Fatal("measurements differing only in compile time compare unequal")
	}
	for name, corrupt := range map[string]func(*mussti.Measurement){
		"shuttles": func(m *mussti.Measurement) { m.Shuttles++ },
		"time":     func(m *mussti.Measurement) { m.TimeUS += 1e-9 },
		"fidelity": func(m *mussti.Measurement) { m.Log10F -= 1e-12 },
		"app":      func(m *mussti.Measurement) { m.App += "x" },
	} {
		bad := ref
		corrupt(&bad)
		if sameMeasurement(ref, bad) {
			t.Errorf("a measurement with a different %s compares equal to the reference", name)
		}
		if sameMeasurements([]mussti.Measurement{ref, ref}, []mussti.Measurement{ref, bad}) {
			t.Errorf("lists differing in %s compare equal", name)
		}
	}
}

func TestCheckMeasurementRejectsWrongTwoQubitCount(t *testing.T) {
	_, ms, err := mussti.RunExperimentCollect(context.Background(), "table2", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	c, err := mussti.BenchmarkByName(m.App)
	if err != nil {
		t.Fatal(err)
	}
	k, err := countGates(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMeasurement(k, m); err != nil {
		t.Fatalf("an uncorrupted measurement fails: %v", err)
	}
	m.TwoQubit++
	if err := checkMeasurement(k, m); err == nil {
		t.Fatal("a measurement with a wrong two-qubit count passes")
	}
}

func TestCheckResponseRejects429(t *testing.T) {
	body := []byte(`{"event":"error","error":"service: compile queue full"}` + "\n")
	if _, err := checkResponse(svcOutcome{status: http.StatusTooManyRequests, body: body}); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("a 429 response passes: %v", err)
	}
	if _, err := checkResponse(svcOutcome{status: http.StatusInternalServerError, body: body}); err == nil {
		t.Fatal("a 500 response passes")
	}
}

func TestCheckResponseNeedsDoneEvent(t *testing.T) {
	done := `{"event":"done","result":{"app":"a","two_qubit_gates":3}}`
	for _, body := range []string{
		done + "\n",
		`{"event":"accepted","label":"a"}` + "\n" + `{"event":"progress"}` + "\n" + done + "\n",
	} {
		res, err := checkResponse(svcOutcome{status: http.StatusOK, body: []byte(body)})
		if err != nil || res.TwoQubit != 3 {
			t.Fatalf("a good response fails: %+v, %v", res, err)
		}
	}
	for _, body := range []string{
		"",
		`{"event":"accepted","label":"a"}` + "\n",
		`{"event":"error","error":"boom"}` + "\n",
		`{"event":"done"}` + "\n",
	} {
		if _, err := checkResponse(svcOutcome{status: http.StatusOK, body: []byte(body)}); err == nil {
			t.Errorf("response %q passes", body)
		}
	}
}

func TestCheckColdRejectsWrongCounts(t *testing.T) {
	q := svcRequest{cold: coldCircuit{qubits: 20, k: gateCounts{twoQubit: 50, serialUS: 900},
		lowered2Q: 54, lowered2US: 800}}
	good := svcResult{Qubits: 20, TwoQubit: 50, TimeUS: 1000, Log10F: -1}
	if err := checkCold(q, good); err != nil {
		t.Fatalf("a good cold response fails: %v", err)
	}
	bad := good
	bad.TwoQubit = 49
	if err := checkCold(q, bad); err == nil {
		t.Fatal("a cold response missing a two-qubit gate passes")
	}
	bad = good
	bad.TimeUS = 850
	if err := checkCold(q, bad); err == nil {
		t.Fatal("a cold response below the serial bound passes")
	}
	q.lower = true
	bad.TwoQubit = 54
	if err := checkCold(q, bad); err != nil {
		t.Fatalf("a lowered circuit is held to its one-qubit gates: %v", err)
	}
	if err := checkCold(q, good); err == nil {
		t.Fatal("a lowered response with the unlowered two-qubit count passes")
	}
}

// TestColdReferenceRejectsDifferentSchedule compiles cold requests through
// the library, as the service would, and shows that a response differing
// from that compile in any schedule figure is rejected.
func TestColdReferenceRejectsDifferentSchedule(t *testing.T) {
	r := &run{tr: newTracer(false)}
	n := 0
	for _, q := range planRound(5, 0, serviceCatalog()) {
		if q.app != "" || q.cold.qubits > 32 {
			continue
		}
		want, err := coldReference(context.Background(), r, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCold(q, want); err != nil {
			t.Fatalf("%s: the library compile fails the cold check: %v", q.name, err)
		}
		if err := sameResult(want, want); err != nil {
			t.Fatal(err)
		}
		for name, corrupt := range map[string]func(*svcResult){
			"shuttles":       func(s *svcResult) { s.Shuttles++ },
			"fiber gates":    func(s *svcResult) { s.FiberGates++ },
			"inserted swaps": func(s *svcResult) { s.InsertedSwaps++ },
			"time":           func(s *svcResult) { s.TimeUS += 1e-9 },
			"fidelity":       func(s *svcResult) { s.Log10F -= 1e-12 },
		} {
			bad := want
			corrupt(&bad)
			if err := sameResult(bad, want); err == nil {
				t.Errorf("%s: a response with different %s passes", q.name, name)
			}
		}
		if n++; n == 4 {
			return
		}
	}
	t.Fatalf("only %d cold requests of at most 32 qubits in the round", n)
}

func TestColdReferenceRejectsWrongParse(t *testing.T) {
	r := &run{tr: newTracer(false)}
	for _, q := range planRound(5, 0, serviceCatalog()) {
		if q.app != "" {
			continue
		}
		q.cold.k.twoQubit++ // the benchmark wrote one more gate than the parser found
		if _, err := coldReference(context.Background(), r, q, 0); err == nil {
			t.Fatalf("%s: a parse missing a two-qubit gate passes", q.name)
		}
		return
	}
}

func TestKnownVerifyFaultNeedsDocumentedError(t *testing.T) {
	fiber := errors.New("verify: op 312 fiber zones 7/11 but qubits at 11/7")
	other := errors.New("verify: op 12 gate on qubit 3 outside its trap")
	if !isKnownVerifyFault("BV_n128/mussti/eml", fiber) {
		t.Fatal("the documented rejection of BV_n128 is not recognised")
	}
	if isKnownVerifyFault("BV_n128/mussti/eml", other) {
		t.Fatal("another rejection of BV_n128 counts as the known fault")
	}
	if isKnownVerifyFault("QFT_n32/mussti/eml", fiber) {
		t.Fatal("a fiber-zone rejection of an unlisted point counts as the known fault")
	}
}
