package dist

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mussti/internal/arch"
	"mussti/internal/core"
	"mussti/internal/eval"
	"mussti/internal/physics"
)

// roundTrip encodes j, decodes the line back, and fails the test unless the
// decoded job reproduces j's resolved spec and cache key exactly.
func roundTrip(t *testing.T, name string, j eval.Job) {
	t.Helper()
	line, err := EncodeJob(7, j)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	seq, back, err := DecodeJob(line)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if seq != 7 {
		t.Errorf("%s: seq 7 round-tripped to %d", name, seq)
	}
	want := j.Spec
	got := back.Spec
	// The Observer is the one deliberate loss (callbacks cannot cross a
	// process boundary and never affect a measurement); null it before the
	// deep comparison so everything else must match.
	if want.Config != nil && want.Config.Observer != nil {
		cfg := *want.Config
		cfg.Observer = nil
		want.Config = &cfg
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: spec did not round-trip:\nwant %+v\ngot  %+v", name, want, got)
	}
	wk, wok := want.CacheKey()
	gk, gok := got.CacheKey()
	if wok != gok || wk != gk {
		t.Errorf("%s: cache key did not round-trip:\nwant (%v) %s\ngot  (%v) %s", name, wok, wk, gok, gk)
	}
}

// TestEnvelopeRoundTripExhaustive is the codec's lossless-round-trip
// contract: every registered compiler, both target kinds (EML device from a
// Config — zero and explicit — and monolithic grid), and every CompileConfig
// option must survive encode→decode with an identical spec and cache key.
func TestEnvelopeRoundTripExhaustive(t *testing.T) {
	grids := []*arch.Grid{nil, arch.MustNewGrid(2, 2, 12), arch.MustNewGrid(2, 3, 8)}
	archs := []arch.Config{{}, arch.DefaultConfig(32), {Modules: 2, TrapCapacity: 8, StorageZones: 1, OperationZones: 1, OpticalZones: 1}}
	ideal := physics.Default()
	ideal.PerfectGates = true
	configs := []*core.CompileConfig{
		nil,
		core.NewCompileConfig(),
		core.NewCompileConfig(core.WithMapping(core.MappingTrivial)),
		core.NewCompileConfig(core.WithSwapInsertion(false)),
		core.NewCompileConfig(core.WithLookAhead(3)),
		core.NewCompileConfig(core.WithSwapThreshold(9)),
		core.NewCompileConfig(core.WithPhysics(ideal)),
		core.NewCompileConfig(core.WithTrace()),
		core.NewCompileConfig(core.WithReplacement(core.ReplaceBelady)),
		core.NewCompileConfig(core.WithRoutingLookAhead(false)),
	}
	for _, comp := range core.CompilerNames() {
		for gi, g := range grids {
			for ai, a := range archs {
				if g != nil && ai > 0 {
					continue // Grid wins over Arch in spec resolution; don't test dead combos
				}
				for ci, cfg := range configs {
					s := eval.CompileSpec{App: "GHZ_n32", Compiler: comp, Grid: g, Arch: a, Config: cfg}
					roundTrip(t, comp+"/"+string(rune('a'+gi))+string(rune('0'+ai))+string(rune('0'+ci)), eval.Job{Spec: s})
				}
			}
		}
	}
}

// TestObserverNeverCrossesTheWire: an attached observer is dropped by the
// codec (it cannot serialise), and the cache key — which excludes observers
// by design — is unchanged.
func TestObserverNeverCrossesTheWire(t *testing.T) {
	cfg := core.NewCompileConfig(core.WithObserver(core.ObserverOrNop(nil)))
	s := eval.CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: cfg}
	line, err := EncodeJob(1, eval.Job{Spec: s})
	if err != nil {
		t.Fatalf("observer made the job unencodable: %v", err)
	}
	_, back, err := DecodeJob(line)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Spec
	if got.Config == nil || got.Config.Observer != nil {
		t.Errorf("observer crossed the wire: %+v", got.Config)
	}
}

// TestResultEnvelopeRoundTrip covers both outcome shapes and the
// exactly-one-of validation.
func TestResultEnvelopeRoundTrip(t *testing.T) {
	m := eval.Measurement{App: "GHZ_n32", Compiler: "MUSS-TI", Qubits: 32, TwoQubit: 31,
		Shuttles: 3, TimeUS: 2075.5, Fidelity: 0.815, Log10F: -0.0888}
	line, err := EncodeResult(9, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := DecodeResult(line)
	if err != nil {
		t.Fatal(err)
	}
	if env.Seq != 9 || env.Err != "" || env.Measurement == nil || *env.Measurement != m {
		t.Errorf("measurement result did not round-trip: %+v", env)
	}

	line, err = EncodeResult(10, eval.Measurement{}, errors.New("eval: GHZ_n32/mussti: boom"))
	if err != nil {
		t.Fatal(err)
	}
	env, err = DecodeResult(line)
	if err != nil {
		t.Fatal(err)
	}
	if env.Seq != 10 || env.Measurement != nil || env.Err != "eval: GHZ_n32/mussti: boom" {
		t.Errorf("error result did not round-trip: %+v", env)
	}
}

// TestDecodeRejectsMalformed pins the error-never-panic contract on a
// catalogue of malformed envelopes.
func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"not json", "seq=1 spec=GHZ"},
		{"truncated", `{"v":2,"kind":"job","seq":1,"spec":{"app":"GH`},
		{"wrong version", `{"v":99,"kind":"job","seq":1,"spec":{"app":"GHZ_n32","compiler":"mussti"}}`},
		{"zero version", `{"kind":"job","seq":1,"spec":{"app":"GHZ_n32","compiler":"mussti"}}`},
		{"missing kind", `{"v":2,"seq":1,"spec":{"app":"GHZ_n32","compiler":"mussti"}}`},
		{"wrong kind", `{"v":2,"kind":"result","seq":1,"spec":{"app":"GHZ_n32","compiler":"mussti"}}`},
		{"unknown field", `{"v":2,"kind":"job","seq":1,"spec":{"app":"GHZ_n32","compiler":"mussti","bogus":3}}`},
		{"trailing garbage", `{"v":2,"kind":"job","seq":1,"spec":{"app":"GHZ_n32","compiler":"mussti"}}{"v":2}`},
		{"wrong types", `{"v":2,"kind":"job","seq":"one","spec":{"app":"GHZ_n32","compiler":"mussti"}}`},
		{"array", `[1,2,3]`},
	}
	for _, c := range cases {
		if _, _, err := DecodeJob([]byte(c.data)); err == nil {
			t.Errorf("DecodeJob(%s) accepted malformed input", c.name)
		}
	}
	results := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"wrong version", `{"v":99,"kind":"result","seq":1,"err":"x"}`},
		{"missing kind", `{"v":2,"seq":1,"err":"x"}`},
		{"wrong kind", `{"v":2,"kind":"pong","seq":1,"err":"x"}`},
		{"neither outcome", `{"v":2,"kind":"result","seq":1}`},
		{"both outcomes", `{"v":2,"kind":"result","seq":1,"measurement":{},"err":"x"}`},
		{"unknown field", `{"v":2,"kind":"result","seq":1,"err":"x","extra":true}`},
	}
	for _, c := range results {
		if _, err := DecodeResult([]byte(c.data)); err == nil {
			t.Errorf("DecodeResult(%s) accepted malformed input", c.name)
		}
	}
}

// TestDecodeRejectsOldWireVersion pins the version bump: a v1 envelope (the
// pre-pipelining wire format — kindless, one job per frame) must be refused
// by every v2 entry point, so a mixed-version fleet fails loudly at the
// first frame instead of silently misinterpreting the stream.
func TestDecodeRejectsOldWireVersion(t *testing.T) {
	v1Job := `{"v":1,"seq":1,"spec":{"app":"GHZ_n32","compiler":"mussti"}}`
	v1Result := `{"v":1,"seq":1,"err":"x"}`
	if _, _, err := DecodeJob([]byte(v1Job)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("DecodeJob accepted a v1 envelope (err %v); the wire version bump must reject it", err)
	}
	if _, err := DecodeResult([]byte(v1Result)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("DecodeResult accepted a v1 envelope (err %v)", err)
	}
	if _, err := SniffFrame([]byte(v1Job)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("SniffFrame accepted a v1 frame (err %v)", err)
	}
}

// TestSniffFrameRoutesKinds: the loose probe must report every kind the
// strict decoders accept, and reject kindless or version-skewed frames
// before any shape-specific parsing.
func TestSniffFrameRoutesKinds(t *testing.T) {
	s := eval.CompileSpec{App: "GHZ_n32", Compiler: "mussti"}
	spec, err := WireSpecOf(eval.Job{Spec: s})
	if err != nil {
		t.Fatal(err)
	}
	frames := []struct {
		kind string
		make func() ([]byte, error)
	}{
		{KindJob, func() ([]byte, error) { return EncodeJobSpec(1, spec) }},
		{KindBatch, func() ([]byte, error) { return EncodeBatch([]WireJob{{Seq: 1, Spec: spec}}) }},
		{KindPing, func() ([]byte, error) { return EncodePing(2) }},
		{KindPong, func() ([]byte, error) { return EncodePong(2) }},
		{KindResult, func() ([]byte, error) { return EncodeResult(3, eval.Measurement{}, nil) }},
		{KindResults, func() ([]byte, error) {
			return EncodeBatchResult([]WireResult{NewWireResult(3, eval.Measurement{}, nil)})
		}},
	}
	for _, f := range frames {
		line, err := f.make()
		if err != nil {
			t.Fatalf("%s: encode: %v", f.kind, err)
		}
		kind, err := SniffFrame(line)
		if err != nil {
			t.Errorf("%s: sniff: %v", f.kind, err)
		} else if kind != f.kind {
			t.Errorf("sniffed %q, want %q", kind, f.kind)
		}
	}
	if _, err := SniffFrame([]byte(`{"v":2,"seq":1}`)); err == nil {
		t.Error("SniffFrame accepted a kindless frame")
	}
	if _, err := SniffFrame([]byte(`not json`)); err == nil {
		t.Error("SniffFrame accepted non-JSON")
	}
}

// TestBatchRoundTrip: a coalesced batch frame must decode into exactly the
// member seqs and jobs it was built from, and empty batches are refused on
// both sides.
func TestBatchRoundTrip(t *testing.T) {
	apps := []string{"GHZ_n32", "BV_n32", "QAOA_n32"}
	wire := make([]WireJob, len(apps))
	for i, app := range apps {
		s := eval.CompileSpec{App: app, Compiler: "mussti", Grid: arch.MustNewGrid(2, 2, 12)}
		spec, err := WireSpecOf(eval.Job{Spec: s})
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = WireJob{Seq: uint64(100 + i), Spec: spec}
	}
	line, err := EncodeBatch(wire)
	if err != nil {
		t.Fatal(err)
	}
	seqs, jobs, err := DecodeBatch(line)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != len(apps) || len(jobs) != len(apps) {
		t.Fatalf("batch of %d decoded to %d seqs / %d jobs", len(apps), len(seqs), len(jobs))
	}
	for i := range apps {
		if seqs[i] != uint64(100+i) {
			t.Errorf("member %d: seq %d, want %d", i, seqs[i], 100+i)
		}
		got := jobs[i].Spec
		if got.App != apps[i] {
			t.Errorf("member %d: app %q, want %q", i, got.App, apps[i])
		}
	}
	if _, err := EncodeBatch(nil); err == nil {
		t.Error("EncodeBatch accepted an empty batch")
	}
	if _, _, err := DecodeBatch([]byte(`{"v":2,"kind":"batch","jobs":[]}`)); err == nil {
		t.Error("DecodeBatch accepted an empty batch")
	}
}

// TestHeartbeatRoundTrip: pings and pongs carry their seq, and the decoder
// refuses every other kind.
func TestHeartbeatRoundTrip(t *testing.T) {
	ping, err := EncodePing(41)
	if err != nil {
		t.Fatal(err)
	}
	kind, seq, err := DecodeHeartbeat(ping)
	if err != nil || kind != KindPing || seq != 41 {
		t.Errorf("ping round-trip: kind %q seq %d err %v", kind, seq, err)
	}
	pong, err := EncodePong(42)
	if err != nil {
		t.Fatal(err)
	}
	kind, seq, err = DecodeHeartbeat(pong)
	if err != nil || kind != KindPong || seq != 42 {
		t.Errorf("pong round-trip: kind %q seq %d err %v", kind, seq, err)
	}
	if _, _, err := DecodeHeartbeat([]byte(`{"v":2,"kind":"job","seq":1}`)); err == nil {
		t.Error("DecodeHeartbeat accepted a job frame")
	}
}

// TestBatchResultRoundTrip covers both member shapes and the per-member
// exactly-one-of validation.
func TestBatchResultRoundTrip(t *testing.T) {
	m := eval.Measurement{App: "GHZ_n32", Compiler: "MUSS-TI", Qubits: 32, TwoQubit: 31}
	line, err := EncodeBatchResult([]WireResult{
		NewWireResult(5, m, nil),
		NewWireResult(6, eval.Measurement{}, errors.New("boom")),
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := DecodeBatchResult(line)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("decoded %d members, want 2", len(results))
	}
	if results[0].Seq != 5 || results[0].Err != "" || results[0].Measurement == nil || *results[0].Measurement != m {
		t.Errorf("measurement member did not round-trip: %+v", results[0])
	}
	if results[1].Seq != 6 || results[1].Measurement != nil || results[1].Err != "boom" {
		t.Errorf("error member did not round-trip: %+v", results[1])
	}
	if _, err := EncodeBatchResult(nil); err == nil {
		t.Error("EncodeBatchResult accepted an empty result set")
	}
	if _, err := DecodeBatchResult([]byte(`{"v":2,"kind":"results","results":[{"seq":1}]}`)); err == nil {
		t.Error("DecodeBatchResult accepted a member with neither outcome")
	}
}

// FuzzDecodeJobEnvelope is the codec's robustness fuzz target: arbitrary
// bytes must either fail to decode or decode into a job whose re-encoding
// decodes to an identical cache key — and nothing may ever panic. The
// seeded corpus under testdata/fuzz mixes valid envelopes with truncations
// and type confusions.
func FuzzDecodeJobEnvelope(f *testing.F) {
	seedJobs := []eval.Job{
		{Spec: eval.CompileSpec{App: "GHZ_n32", Compiler: "mussti"}},
		{Spec: eval.CompileSpec{App: "QFT_n32", Compiler: "dai", Grid: arch.MustNewGrid(2, 2, 12)}},
		{Spec: eval.CompileSpec{App: "BV_n32", Compiler: "murali", Config: core.NewCompileConfig(core.WithLookAhead(5))}},
		{Spec: eval.CompileSpec{App: "SQRT_n30", Compiler: "mqt", Arch: arch.DefaultConfig(30)}},
	}
	for _, j := range seedJobs {
		line, err := EncodeJob(1, j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"v":1,"seq":1,"spec":{"app":"GHZ_n32","compiler":"mussti","bogus":3}}`))
	f.Add([]byte(`{"v":99}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"v":1,"seq":18446744073709551615,"spec":{"app":"","compiler":""}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, job, err := DecodeJob(data)
		if err != nil {
			return // malformed input must error, and it did
		}
		spec := job.Spec
		k1, ok1 := spec.CacheKey()
		line, err := EncodeJob(seq, job)
		if err != nil {
			t.Fatalf("decoded job does not re-encode: %v", err)
		}
		seq2, job2, err := DecodeJob(line)
		if err != nil {
			t.Fatalf("re-encoded job does not decode: %v", err)
		}
		if seq2 != seq {
			t.Fatalf("seq %d re-encoded to %d", seq, seq2)
		}
		spec2 := job2.Spec
		k2, ok2 := spec2.CacheKey()
		if ok1 != ok2 || k1 != k2 {
			t.Fatalf("cache key not preserved:\nfirst  (%v) %s\nsecond (%v) %s", ok1, k1, ok2, k2)
		}
	})
}

// FuzzSpecRoundTrip fuzzes the spec fields themselves (rather than raw
// bytes): any spec the harness could construct must round-trip to an
// identical cache key, whatever strings and numbers it carries.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add("GHZ_n32", "mussti", false, 2, 2, 12, 100.0, 0, 16, 8, true, 1, 8, 4, false, 0)
	f.Add("QFT_n32", "dai", true, 2, 3, 8, 75.5, 4, 12, 6, false, 0, 0, 0, false, 0)
	f.Add("", "", false, 0, 0, 0, 0.0, 0, 0, 0, true, 0, -1, -7, true, 3)
	f.Add("weird|app\nname", "no-such-compiler", true, -1, 1<<30, 2, -0.0, 1, 1, 1, true, 99, 1<<40, 1, true, -9)
	f.Fuzz(func(t *testing.T, app, compiler string, useGrid bool, rows, cols, capacity int, pitch float64,
		modules, trapCap, optCap int, hasConfig bool, mapping, lookAhead, swapT int, trace bool, repl int) {
		s := eval.CompileSpec{App: app, Compiler: compiler}
		if useGrid {
			s.Grid = &arch.Grid{Rows: rows, Cols: cols, Capacity: capacity, TrapPitchUM: pitch}
		} else {
			s.Arch = arch.Config{Modules: modules, TrapCapacity: trapCap, OpticalCapacity: optCap, ZonePitchUM: pitch}
		}
		if hasConfig {
			s.Config = &core.CompileConfig{
				Mapping:       core.MappingStrategy(mapping),
				LookAhead:     lookAhead,
				SwapThreshold: swapT,
				Trace:         trace,
				Replacement:   core.ReplacementPolicy(repl),
				Params:        physics.Default(),
			}
		}
		j := eval.Job{Spec: s}
		line, err := EncodeJob(1, j)
		if err != nil {
			// Two inputs are legitimately unencodable: non-finite floats
			// (JSON has no Inf/NaN) and invalid UTF-8 names (encoding/json
			// would silently rewrite them, so the codec refuses instead).
			if strings.Contains(err.Error(), "unsupported value") ||
				strings.Contains(err.Error(), "valid UTF-8") {
				return
			}
			t.Fatalf("encode failed: %v", err)
		}
		_, back, err := DecodeJob(line)
		if err != nil {
			t.Fatalf("own encoding does not decode: %v", err)
		}
		got := back.Spec
		k1, ok1 := s.CacheKey()
		k2, ok2 := got.CacheKey()
		if ok1 != ok2 || k1 != k2 {
			t.Fatalf("cache key not preserved:\nin  (%v) %s\nout (%v) %s", ok1, k1, ok2, k2)
		}
	})
}
