// Package dist fans experiment jobs out across OS processes and machines.
//
// The experiment harness (internal/eval) already decomposes every table and
// figure into independent, self-contained measurement jobs and reassembles
// results in paper order; this package adds the two pieces a fleet needs on
// top of that: a wire codec that moves jobs and measurements between
// processes losslessly, and a coordinator/worker pair that speaks it.
//
// The protocol is newline-delimited JSON frames over a worker process's
// stdin/stdout, each tagged with a kind:
//
//	coordinator → worker:  {"v":2,"kind":"job","seq":N,"spec":{...}}\n
//	                       {"v":2,"kind":"batch","jobs":[{"seq":N,"spec":{...}},...]}\n
//	                       {"v":2,"kind":"ping","seq":N}\n
//	worker → coordinator:  {"v":2,"kind":"result","seq":N,"measurement":{...}}\n
//	                       {"v":2,"kind":"result","seq":N,"err":"..."}\n
//	                       {"v":2,"kind":"results","results":[...]}\n
//	                       {"v":2,"kind":"pong","seq":N}\n
//
// The coordinator keeps a window of jobs in flight per worker and matches
// results to outstanding jobs by seq, so results may complete out of order
// on the wire; paper-order reassembly stays Runner-side and a distributed
// run is byte-identical to a sequential one. Sub-millisecond jobs coalesce
// into batch frames, which the worker executes through the shared-prep
// CompileBatch path. Pings answer from the worker's read loop even while a
// compile is running, so a live worker is distinguishable from a hung one.
// The envelope is versioned: a coordinator and worker disagreeing on the
// format fail loudly instead of mis-measuring.
package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"unicode/utf8"

	"mussti/internal/arch"
	"mussti/internal/core"
	"mussti/internal/eval"
	"mussti/internal/physics"
)

// EnvelopeVersion is the wire format version. Bump it when the envelope
// layout (or the semantics of any field) changes; mixed fleets then error
// on the first exchange instead of silently decoding wrong measurements.
// Version history: 1 — one lockstep job/result pair per worker; 2 — kind-
// tagged frames with pipelined dispatch, batch envelopes and heartbeats.
const EnvelopeVersion = 2

// wireChecksum pins the envelope schema. The wirecompat analyzer recomputes
// the fingerprint from EnvelopeVersion plus every //mussti:wire struct's
// fields (names, types, tags, in declaration order) and fails the lint until
// this constant matches — so any schema edit shows up in review next to a
// deliberate checksum (and, for breaking changes, version) bump.
const wireChecksum = "3ce215cc13197461"

// Frame kinds. Kind is part of every frame so one stream can interleave
// jobs, batches and liveness probes without positional rules.
const (
	// KindJob carries one job (coordinator → worker).
	KindJob = "job"
	// KindBatch carries several jobs in one frame; the worker may compile
	// them through a shared prep (coordinator → worker).
	KindBatch = "batch"
	// KindPing is a liveness probe (coordinator → worker).
	KindPing = "ping"
	// KindResult carries one job outcome (worker → coordinator).
	KindResult = "result"
	// KindResults carries a batch frame's outcomes (worker → coordinator).
	KindResults = "results"
	// KindPong answers a ping, echoing its seq (worker → coordinator).
	KindPong = "pong"
)

// JobEnvelope is the wire form of one measurement job.
//
//mussti:wire
type JobEnvelope struct {
	// V is the format version; decoders reject any value other than
	// EnvelopeVersion.
	V int `json:"v"`
	// Kind is KindJob.
	Kind string `json:"kind"`
	// Seq identifies the job within one coordinator/worker conversation;
	// responses echo it, so results can complete out of order and a
	// protocol desync is detected immediately.
	Seq uint64 `json:"seq"`
	// Spec is the resolved measurement spec.
	Spec WireSpec `json:"spec"`
}

// WireJob is one member of a batch frame: a seq and its spec.
//
//mussti:wire
type WireJob struct {
	Seq  uint64   `json:"seq"`
	Spec WireSpec `json:"spec"`
}

// BatchJobEnvelope is the wire form of several jobs coalesced into one
// frame. The worker answers with one BatchResultEnvelope carrying every
// member's outcome (per-member: a job error never poisons its neighbours).
//
//mussti:wire
type BatchJobEnvelope struct {
	V    int       `json:"v"`
	Kind string    `json:"kind"`
	Jobs []WireJob `json:"jobs"`
}

// HeartbeatEnvelope is a liveness probe (ping) or its echo (pong). Seq
// identifies the probe; a worker answers from its read loop even while a
// compile runs, so silence over several probes means the process is hung or
// gone, not merely busy.
//
//mussti:wire
type HeartbeatEnvelope struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	Seq  uint64 `json:"seq"`
}

// WireSpec mirrors eval.CompileSpec field for field, spelled as its own
// struct so the wire format is an explicit contract: a change to the spec
// types must be reconciled here (and versioned) rather than silently
// altering what old workers decode.
//
//mussti:wire
type WireSpec struct {
	App      string      `json:"app"`
	Compiler string      `json:"compiler"`
	Grid     *WireGrid   `json:"grid,omitempty"`
	Arch     *WireArch   `json:"arch,omitempty"`
	Config   *WireConfig `json:"config,omitempty"`
}

// WireGrid mirrors arch.Grid.
//
//mussti:wire
type WireGrid struct {
	Rows        int     `json:"rows"`
	Cols        int     `json:"cols"`
	Capacity    int     `json:"capacity"`
	TrapPitchUM float64 `json:"trapPitchUM"`
}

// WireArch mirrors arch.Config. A nil *WireArch encodes the zero Config
// (the paper-default machine for the app's qubit count).
//
//mussti:wire
type WireArch struct {
	Modules          int     `json:"modules"`
	TrapCapacity     int     `json:"trapCapacity"`
	StorageZones     int     `json:"storageZones"`
	OperationZones   int     `json:"operationZones"`
	OpticalZones     int     `json:"opticalZones"`
	OpticalCapacity  int     `json:"opticalCapacity"`
	MaxIonsPerModule int     `json:"maxIonsPerModule"`
	ZonePitchUM      float64 `json:"zonePitchUM"`
}

// WireConfig mirrors core.CompileConfig minus the Observer: callbacks cannot
// cross a process boundary. The cache key excludes the Observer for the same
// reason — observation never changes a measurement — so dropping it keeps
// the round-trip lossless for everything a measurement depends on.
//
//mussti:wire
type WireConfig struct {
	Mapping                 int            `json:"mapping"`
	SwapInsertion           bool           `json:"swapInsertion"`
	LookAhead               int            `json:"lookAhead"`
	SwapThreshold           int            `json:"swapThreshold"`
	Params                  physics.Params `json:"params"`
	Trace                   bool           `json:"trace"`
	Replacement             int            `json:"replacement"`
	DisableRoutingLookAhead bool           `json:"disableRoutingLookAhead"`
}

// ResultEnvelope is the wire form of one job's outcome: exactly one of
// Measurement and Err is set.
//
//mussti:wire
type ResultEnvelope struct {
	V           int               `json:"v"`
	Kind        string            `json:"kind"`
	Seq         uint64            `json:"seq"`
	Measurement *eval.Measurement `json:"measurement,omitempty"`
	// Err carries a real job failure (bad app name, compiler invariant
	// break) back as text; transport failures never produce an envelope.
	Err string `json:"err,omitempty"`
}

// WireResult is one member of a batch result frame; like ResultEnvelope,
// exactly one of Measurement and Err is set.
//
//mussti:wire
type WireResult struct {
	Seq         uint64            `json:"seq"`
	Measurement *eval.Measurement `json:"measurement,omitempty"`
	Err         string            `json:"err,omitempty"`
}

// BatchResultEnvelope answers a BatchJobEnvelope with every member's
// outcome.
//
//mussti:wire
type BatchResultEnvelope struct {
	V       int          `json:"v"`
	Kind    string       `json:"kind"`
	Results []WireResult `json:"results"`
}

// SniffFrame reads a frame's version and kind without decoding its body, so
// a receiver can route one line to the right strict decoder. Version skew
// and kindless frames error here, before any shape-specific parsing.
func SniffFrame(data []byte) (string, error) {
	var probe struct {
		V    int    `json:"v"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", fmt.Errorf("dist: decoding frame: %w", err)
	}
	if probe.V != EnvelopeVersion {
		return "", fmt.Errorf("dist: frame version %d, this build speaks %d", probe.V, EnvelopeVersion)
	}
	if probe.Kind == "" {
		return "", fmt.Errorf("dist: frame has no kind")
	}
	return probe.Kind, nil
}

// WireSpecOf resolves and validates a job for transport, returning its wire
// spec. Legacy Mussti/Baseline spec jobs convert through their existing
// CompileSpec conversion, so both API styles share one wire form. Jobs that
// fail to resolve — or that cannot cross the wire losslessly — error here,
// before any dispatch, so a transport-level retry never re-pays validation.
func WireSpecOf(j eval.Job) (WireSpec, error) {
	s, err := j.Resolve()
	if err != nil {
		return WireSpec{}, fmt.Errorf("dist: encoding job: %w", err)
	}
	// encoding/json silently rewrites invalid UTF-8 to U+FFFD, which would
	// mutate the name (and the cache key) in transit. A name the codec
	// cannot carry losslessly must fail loudly here instead.
	if !utf8.ValidString(s.App) || !utf8.ValidString(s.Compiler) {
		return WireSpec{}, fmt.Errorf("dist: encoding job: app/compiler names must be valid UTF-8 (app %q, compiler %q)", s.App, s.Compiler)
	}
	w := specToWire(s)
	// Trial-marshal now so unencodable values (non-finite floats) surface as
	// a job error at submission, not as a mid-dispatch transport anomaly.
	if _, err := json.Marshal(w); err != nil {
		return WireSpec{}, fmt.Errorf("dist: encoding job: %w", err)
	}
	return w, nil
}

// EncodeJob renders the job as a one-line envelope.
func EncodeJob(seq uint64, j eval.Job) ([]byte, error) {
	w, err := WireSpecOf(j)
	if err != nil {
		return nil, err
	}
	return EncodeJobSpec(seq, w)
}

// EncodeJobSpec renders an already-validated wire spec as a one-line job
// envelope; the coordinator validates once via WireSpecOf and re-encodes
// with a fresh seq on every dispatch (retries included).
func EncodeJobSpec(seq uint64, spec WireSpec) ([]byte, error) {
	env := JobEnvelope{V: EnvelopeVersion, Kind: KindJob, Seq: seq, Spec: spec}
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding job: %w", err)
	}
	return data, nil
}

// DecodeJob parses a job envelope. Malformed input — syntactically broken
// JSON, unknown fields, version skew, trailing garbage — errors; it never
// panics (the codec fuzz test pins that). The returned job carries the
// decoded spec, whose cache key is identical to the encoded job's.
func DecodeJob(data []byte) (uint64, eval.Job, error) {
	var env JobEnvelope
	if err := decodeStrict(data, &env); err != nil {
		return 0, eval.Job{}, fmt.Errorf("dist: decoding job envelope: %w", err)
	}
	if env.V != EnvelopeVersion {
		return 0, eval.Job{}, fmt.Errorf("dist: job envelope version %d, this build speaks %d", env.V, EnvelopeVersion)
	}
	if env.Kind != KindJob {
		return 0, eval.Job{}, fmt.Errorf("dist: job envelope has kind %q, want %q", env.Kind, KindJob)
	}
	spec := specFromWire(env.Spec)
	return env.Seq, eval.Job{Spec: &spec}, nil
}

// EncodeBatch renders several jobs as one batch frame.
func EncodeBatch(jobs []WireJob) ([]byte, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("dist: encoding batch: no jobs")
	}
	env := BatchJobEnvelope{V: EnvelopeVersion, Kind: KindBatch, Jobs: jobs}
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding batch: %w", err)
	}
	return data, nil
}

// DecodeBatch parses a batch frame into per-member seqs and jobs.
func DecodeBatch(data []byte) ([]uint64, []eval.Job, error) {
	var env BatchJobEnvelope
	if err := decodeStrict(data, &env); err != nil {
		return nil, nil, fmt.Errorf("dist: decoding batch envelope: %w", err)
	}
	if env.V != EnvelopeVersion {
		return nil, nil, fmt.Errorf("dist: batch envelope version %d, this build speaks %d", env.V, EnvelopeVersion)
	}
	if env.Kind != KindBatch {
		return nil, nil, fmt.Errorf("dist: batch envelope has kind %q, want %q", env.Kind, KindBatch)
	}
	if len(env.Jobs) == 0 {
		return nil, nil, fmt.Errorf("dist: batch envelope has no jobs")
	}
	seqs := make([]uint64, len(env.Jobs))
	jobs := make([]eval.Job, len(env.Jobs))
	for i, wj := range env.Jobs {
		spec := specFromWire(wj.Spec)
		seqs[i] = wj.Seq
		jobs[i] = eval.Job{Spec: &spec}
	}
	return seqs, jobs, nil
}

// EncodePing renders a liveness probe.
func EncodePing(seq uint64) ([]byte, error) { return encodeHeartbeat(KindPing, seq) }

// EncodePong renders a probe's echo.
func EncodePong(seq uint64) ([]byte, error) { return encodeHeartbeat(KindPong, seq) }

func encodeHeartbeat(kind string, seq uint64) ([]byte, error) {
	data, err := json.Marshal(HeartbeatEnvelope{V: EnvelopeVersion, Kind: kind, Seq: seq})
	if err != nil {
		return nil, fmt.Errorf("dist: encoding %s: %w", kind, err)
	}
	return data, nil
}

// DecodeHeartbeat parses a ping or pong frame, returning its kind and seq.
func DecodeHeartbeat(data []byte) (string, uint64, error) {
	var env HeartbeatEnvelope
	if err := decodeStrict(data, &env); err != nil {
		return "", 0, fmt.Errorf("dist: decoding heartbeat: %w", err)
	}
	if env.V != EnvelopeVersion {
		return "", 0, fmt.Errorf("dist: heartbeat version %d, this build speaks %d", env.V, EnvelopeVersion)
	}
	if env.Kind != KindPing && env.Kind != KindPong {
		return "", 0, fmt.Errorf("dist: heartbeat has kind %q, want %q or %q", env.Kind, KindPing, KindPong)
	}
	return env.Kind, env.Seq, nil
}

// EncodeResult renders a job outcome as a one-line envelope. A non-nil err
// wins over the measurement.
func EncodeResult(seq uint64, m eval.Measurement, jobErr error) ([]byte, error) {
	env := ResultEnvelope{V: EnvelopeVersion, Kind: KindResult, Seq: seq}
	if jobErr != nil {
		env.Err = jobErr.Error()
		if env.Err == "" {
			env.Err = "unknown error"
		}
	} else {
		env.Measurement = &m
	}
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding result: %w", err)
	}
	return data, nil
}

// DecodeResult parses a result envelope; like DecodeJob it errors on any
// malformed input and never panics.
func DecodeResult(data []byte) (ResultEnvelope, error) {
	var env ResultEnvelope
	if err := decodeStrict(data, &env); err != nil {
		return ResultEnvelope{}, fmt.Errorf("dist: decoding result envelope: %w", err)
	}
	if env.V != EnvelopeVersion {
		return ResultEnvelope{}, fmt.Errorf("dist: result envelope version %d, this build speaks %d", env.V, EnvelopeVersion)
	}
	if env.Kind != KindResult {
		return ResultEnvelope{}, fmt.Errorf("dist: result envelope has kind %q, want %q", env.Kind, KindResult)
	}
	if (env.Measurement == nil) == (env.Err == "") {
		return ResultEnvelope{}, fmt.Errorf("dist: result envelope needs exactly one of measurement and err")
	}
	return env, nil
}

// NewWireResult builds one batch-result member from a job outcome.
func NewWireResult(seq uint64, m eval.Measurement, jobErr error) WireResult {
	r := WireResult{Seq: seq}
	if jobErr != nil {
		r.Err = jobErr.Error()
		if r.Err == "" {
			r.Err = "unknown error"
		}
	} else {
		r.Measurement = &m
	}
	return r
}

// EncodeBatchResult renders a batch frame's outcomes.
func EncodeBatchResult(results []WireResult) ([]byte, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("dist: encoding batch result: no results")
	}
	env := BatchResultEnvelope{V: EnvelopeVersion, Kind: KindResults, Results: results}
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding batch result: %w", err)
	}
	return data, nil
}

// DecodeBatchResult parses a batch result frame, validating every member's
// exactly-one-of shape.
func DecodeBatchResult(data []byte) ([]WireResult, error) {
	var env BatchResultEnvelope
	if err := decodeStrict(data, &env); err != nil {
		return nil, fmt.Errorf("dist: decoding batch result: %w", err)
	}
	if env.V != EnvelopeVersion {
		return nil, fmt.Errorf("dist: batch result version %d, this build speaks %d", env.V, EnvelopeVersion)
	}
	if env.Kind != KindResults {
		return nil, fmt.Errorf("dist: batch result has kind %q, want %q", env.Kind, KindResults)
	}
	if len(env.Results) == 0 {
		return nil, fmt.Errorf("dist: batch result has no results")
	}
	for i, r := range env.Results {
		if (r.Measurement == nil) == (r.Err == "") {
			return nil, fmt.Errorf("dist: batch result member %d needs exactly one of measurement and err", i)
		}
	}
	return env.Results, nil
}

// decodeStrict unmarshals with unknown fields rejected and trailing input
// refused, so a truncated or corrupted stream fails instead of yielding a
// half-decoded envelope.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after envelope")
	}
	return nil
}

func specToWire(s eval.CompileSpec) WireSpec {
	w := WireSpec{App: s.App, Compiler: s.Compiler}
	if s.Grid != nil {
		w.Grid = &WireGrid{Rows: s.Grid.Rows, Cols: s.Grid.Cols, Capacity: s.Grid.Capacity, TrapPitchUM: s.Grid.TrapPitchUM}
	}
	if s.Arch != (arch.Config{}) {
		w.Arch = &WireArch{
			Modules:          s.Arch.Modules,
			TrapCapacity:     s.Arch.TrapCapacity,
			StorageZones:     s.Arch.StorageZones,
			OperationZones:   s.Arch.OperationZones,
			OpticalZones:     s.Arch.OpticalZones,
			OpticalCapacity:  s.Arch.OpticalCapacity,
			MaxIonsPerModule: s.Arch.MaxIonsPerModule,
			ZonePitchUM:      s.Arch.ZonePitchUM,
		}
	}
	if s.Config != nil {
		w.Config = &WireConfig{
			Mapping:                 int(s.Config.Mapping),
			SwapInsertion:           s.Config.SwapInsertion,
			LookAhead:               s.Config.LookAhead,
			SwapThreshold:           s.Config.SwapThreshold,
			Params:                  s.Config.Params,
			Trace:                   s.Config.Trace,
			Replacement:             int(s.Config.Replacement),
			DisableRoutingLookAhead: s.Config.DisableRoutingLookAhead,
		}
	}
	return w
}

func specFromWire(w WireSpec) eval.CompileSpec {
	s := eval.CompileSpec{App: w.App, Compiler: w.Compiler}
	if w.Grid != nil {
		s.Grid = &arch.Grid{Rows: w.Grid.Rows, Cols: w.Grid.Cols, Capacity: w.Grid.Capacity, TrapPitchUM: w.Grid.TrapPitchUM}
	}
	if w.Arch != nil {
		s.Arch = arch.Config{
			Modules:          w.Arch.Modules,
			TrapCapacity:     w.Arch.TrapCapacity,
			StorageZones:     w.Arch.StorageZones,
			OperationZones:   w.Arch.OperationZones,
			OpticalZones:     w.Arch.OpticalZones,
			OpticalCapacity:  w.Arch.OpticalCapacity,
			MaxIonsPerModule: w.Arch.MaxIonsPerModule,
			ZonePitchUM:      w.Arch.ZonePitchUM,
		}
	}
	if w.Config != nil {
		s.Config = &core.CompileConfig{
			Mapping:                 core.MappingStrategy(w.Config.Mapping),
			SwapInsertion:           w.Config.SwapInsertion,
			LookAhead:               w.Config.LookAhead,
			SwapThreshold:           w.Config.SwapThreshold,
			Params:                  w.Config.Params,
			Trace:                   w.Config.Trace,
			Replacement:             core.ReplacementPolicy(w.Config.Replacement),
			DisableRoutingLookAhead: w.Config.DisableRoutingLookAhead,
		}
	}
	return s
}
