package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"mussti"
	"mussti/internal/circuit/bench"
)

// svcResult mirrors the "result" object of a /v1/compile response.
type svcResult struct {
	App           string  `json:"app"`
	Compiler      string  `json:"compiler"`
	Qubits        int     `json:"qubits"`
	TwoQubit      int     `json:"two_qubit_gates"`
	Shuttles      int     `json:"shuttles"`
	ChainSwaps    int     `json:"chain_swaps"`
	InsertedSwaps int     `json:"inserted_swaps"`
	FiberGates    int     `json:"fiber_gates"`
	TimeUS        float64 `json:"time_us"`
	Fidelity      float64 `json:"fidelity"`
	Log10F        float64 `json:"log10_fidelity"`
}

// svcEvent is one response object: the bare "done" (or "error") event, or
// one line of a streamed response.
type svcEvent struct {
	Event  string     `json:"event"`
	Result *svcResult `json:"result"`
	Error  string     `json:"error"`
}

// svcOutcome is what the load generator saw of one request.
type svcOutcome struct {
	status  int
	body    []byte
	err     error
	lag     time.Duration // send time minus due time
	ttfb    time.Duration // send to response headers
	latency time.Duration // start (see serviceMixed) to the end of the body
}

// serviceCatalog are the hot keys: the built-in Fig. 6 small- and
// medium-scale apps, compiled with MUSS-TI on their default devices.
func serviceCatalog() []string {
	return append(bench.SmallSuite(), bench.MediumSuite()...)
}

// serviceMixed serves an open-loop request stream from an in-process
// compilation service on a loopback listener. Requests are due at Poisson
// arrival times; at most CPU-count connections carry them, and a request's
// latency runs from its due time (see the sender loop for the one
// exception). See inputs.go for the mix.
func serviceMixed(r *run) error {
	ctx := context.Background()
	conns := runtime.NumCPU()
	runner := mussti.NewRunner(conns)
	svc, err := mussti.NewService(mussti.ServiceOptions{Runner: runner})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(ctx)
		<-served
	}()
	base := "http://" + ln.Addr().String()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	// Set-up ends with every hot key compiled once, so the measured hot
	// requests are memo reads.
	catalog := serviceCatalog()
	for _, app := range catalog {
		body, err := requestBody(svcRequest{app: app})
		if err != nil {
			return err
		}
		now := time.Now()
		o := send(ctx, client, base, body, now, now)
		if o.err != nil || o.status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d, %v", app, o.status, o.err)
		}
	}
	r.setupDone()

	var walls, allocs, lats, hotLats, coldLats, lags, ttfbs []float64
	var latMeans []float64 // per-round mean latencies
	var p50s []float64     // per-round latency medians, for the tracing overhead
	hot := map[string]svcResult{}
	var attempted, failed int64
	rs, err := r.rounds(func(round int, traced bool) error {
		g := r.tr.begin("bench.generate", -1, 0, round)
		reqs := planRound(r.seed, round, catalog)
		bodies := make([][]byte, len(reqs))
		for i, q := range reqs {
			b, err := requestBody(q)
			if err != nil {
				return err
			}
			bodies[i] = b
		}
		r.tr.end(g)
		outs := make([]svcOutcome, len(reqs))
		rsp := r.tr.begin("round", -1, 0, round)
		a0 := allocMB()
		t0 := time.Now()
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					due := t0.Add(reqs[i].at)
					// A request picked up after its due time waited for a
					// busy connection, and its latency counts that wait. A
					// request picked up early waits for the timer, and the
					// timer's slack is the generator's, not the service's.
					start := due
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
						start = time.Now()
					}
					id := int64(round*svcPerRound + i + 1)
					s := r.tr.begin("loadgen.request", rsp, id, round)
					outs[i] = send(ctx, client, base, bodies[i], due, start)
					r.tr.end(s)
				}
			}()
		}
		for i := range reqs {
			next <- i
		}
		close(next)
		wg.Wait()
		walls = append(walls, time.Since(t0).Seconds())
		allocs = append(allocs, allocMB()-a0)
		r.tr.end(rsp)
		var roundLats []float64
		for i, o := range outs {
			attempted++
			res, err := checkResponse(o)
			if err != nil {
				failed++
				r.fail("round %d request %d: %v", round, i, err)
				continue
			}
			q := reqs[i]
			roundLats = append(roundLats, ms(o.latency))
			lags = append(lags, ms(o.lag))
			if q.stream {
				ttfbs = append(ttfbs, ms(o.ttfb))
			}
			if q.app == "" {
				coldLats = append(coldLats, ms(o.latency))
				if err := checkCold(q, res); err != nil {
					r.fail("round %d %s: %v", round, q.name, err)
					continue
				}
				want, err := coldReference(ctx, r, q, round)
				if err == nil {
					err = sameResult(res, want)
				}
				if err != nil {
					r.fail("round %d %s: %v", round, q.name, err)
				}
				continue
			}
			hotLats = append(hotLats, ms(o.latency))
			if prev, ok := hot[q.app]; !ok {
				hot[q.app] = res
			} else if prev != res {
				r.fail("round %d %s: response differs from the earlier one", round, q.app)
			}
		}
		lats = append(lats, roundLats...)
		latMeans = append(latMeans, mean(roundLats))
		p50s = append(p50s, median(roundLats))
		return nil
	})
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	r.res.Attempted, r.res.Failed = attempted, failed

	// Every hot response must equal the library compile of its point.
	var shuttles int
	var makespanUS, negLog10F float64
	for _, app := range catalog {
		got, ok := hot[app]
		if !ok {
			r.fail("%s: never served", app)
			continue
		}
		want, err := libraryResult(ctx, app)
		if err != nil {
			return err
		}
		if err := sameResult(got, want); err != nil {
			r.fail("%s: %v", app, err)
		}
		shuttles += got.Shuttles
		makespanUS += got.TimeUS
		negLog10F -= got.Log10F
	}
	snap, err := serviceMetrics(ctx, client, base)
	if err != nil {
		return err
	}
	if snap.Rejected != 0 {
		r.fail("service rejected %d requests", snap.Rejected)
	}
	if !r.traced {
		setEndToEnd(r, endToEnd{
			roundS: median(walls), shuttles: shuttles, makespanS: makespanUS / 1e6, negLog10F: negLog10F,
			allocMB: median(allocs), rssMB: rss, meanMS: median(latMeans),
		})
		return nil
	}
	setLayerDefaults(r)
	r.set("bench.generate_ms", "ms", r.tr.layerMS("bench.generate", rs.traced))
	r.set("arch.build_ms", "ms", r.tr.layerMS("arch.build", rs.traced))
	r.set("circuit.parse_ms", "ms", r.tr.layerMS("circuit.parse", rs.traced))
	r.set("circuit.lower_ms", "ms", r.tr.layerMS("circuit.lower", rs.traced))
	r.set("eval.memo_hits", "count", float64(snap.Memo.Hits))
	r.set("eval.memo_misses", "count", float64(snap.Memo.Misses))
	r.set("service.compiles", "count", float64(snap.Compiles))
	r.set("service.cache_served", "count", float64(snap.CacheServed))
	r.set("service.rejected", "count", float64(snap.Rejected))
	r.set("service.ttfb_ms", "ms", median(ttfbs))
	r.set("service.hot_latency_p50_ms", "ms", median(hotLats))
	r.set("service.cold_latency_p50_ms", "ms", median(coldLats))
	r.set("service.latency_p99_ms", "ms", quantile(lats, 0.99))
	r.set("loadgen.lag_ms", "ms", quantile(lags, 0.99))
	r.set("trace.overhead_pct", "%", overheadPct(p50s, rs))
	return nil
}

// requestBody encodes the /v1/compile request body of q.
func requestBody(q svcRequest) ([]byte, error) {
	body := map[string]any{}
	if q.app != "" {
		body["app"] = q.app
	} else {
		body["qasm"], body["name"], body["lower"] = q.qasm, q.name, q.lower
	}
	if q.stream {
		body["stream"] = true
	}
	return json.Marshal(body)
}

// send posts one encoded request and reads its whole response. Lag runs
// from due, latency from start.
func send(ctx context.Context, client *http.Client, base string, body []byte, due, start time.Time) svcOutcome {
	sent := time.Now()
	o := svcOutcome{lag: max(sent.Sub(due), 0)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.ttfb = time.Since(sent)
	o.status = resp.StatusCode
	o.body, o.err = io.ReadAll(resp.Body)
	o.latency = time.Since(start)
	return o
}

// checkResponse accepts a 200 response whose last event is "done" with a
// result, and returns that result.
func checkResponse(o svcOutcome) (svcResult, error) {
	if o.err != nil {
		return svcResult{}, o.err
	}
	if err := checkStatus(o.status); err != nil {
		return svcResult{}, err
	}
	lines := bufio.NewScanner(bytes.NewReader(o.body))
	var last svcEvent
	seen := false
	for lines.Scan() {
		line := strings.TrimSpace(lines.Text())
		if line == "" {
			continue
		}
		last = svcEvent{}
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			return svcResult{}, fmt.Errorf("decoding response: %w", err)
		}
		seen = true
	}
	if err := lines.Err(); err != nil {
		return svcResult{}, err
	}
	if !seen || last.Event != "done" || last.Result == nil {
		return svcResult{}, fmt.Errorf("response ends without a done event (last event %q, error %q)", last.Event, last.Error)
	}
	return *last.Result, nil
}

// checkCold checks a cold response against what the benchmark wrote into
// its QASM: the qubit and two-qubit counts, and the makespan bound. A
// lowered circuit is held to its two-qubit gates alone, since lowering
// rewrites the one-qubit gates.
func checkCold(q svcRequest, res svcResult) error {
	if res.Qubits != q.cold.qubits {
		return fmt.Errorf("reports %d qubits, the QASM declares %d", res.Qubits, q.cold.qubits)
	}
	want2, bound := q.cold.k.twoQubit, q.cold.k.serialUS
	if q.lower {
		want2, bound = q.cold.lowered2Q, q.cold.lowered2US
	}
	if res.TwoQubit != want2 {
		return fmt.Errorf("reports %d two-qubit gates, the QASM has %d", res.TwoQubit, want2)
	}
	return checkBounds(bound, res.TimeUS, res.Log10F)
}

// sameResult requires a service response to equal the library compile of
// the same circuit in every field.
func sameResult(got, want svcResult) error {
	if got != want {
		return fmt.Errorf("service returned %+v, library compile gives %+v", got, want)
	}
	return nil
}

// coldReference compiles a cold request's QASM through the library, as the
// service resolves it: parse, lower when asked, MUSS-TI with the paper's
// defaults on the default EML-QCCD device for its size. The parsed circuit
// must hold the gates the benchmark wrote, and the schedule must conserve
// them. In a traced round it records the parse, lowering and device build.
func coldReference(ctx context.Context, r *run, q svcRequest, round int) (svcResult, error) {
	s := r.tr.begin("circuit.parse", -1, 0, round)
	c, err := mussti.ParseQASM(q.name, strings.NewReader(q.qasm))
	r.tr.end(s)
	if err != nil {
		return svcResult{}, fmt.Errorf("%s: %w", q.name, err)
	}
	k, err := countGates(c)
	if err != nil {
		return svcResult{}, err
	}
	if k != q.cold.k {
		return svcResult{}, fmt.Errorf("%s: parsed %+v, the QASM has %+v", q.name, k, q.cold.k)
	}
	if q.lower {
		s = r.tr.begin("circuit.lower", -1, 0, round)
		c = mussti.OptimizeOneQubit(mussti.LowerToNative(c))
		r.tr.end(s)
		if k, err = countGates(c); err != nil {
			return svcResult{}, err
		}
		if k.twoQubit != q.cold.lowered2Q {
			return svcResult{}, fmt.Errorf("%s: lowered to %d two-qubit gates, want %d", q.name, k.twoQubit, q.cold.lowered2Q)
		}
	}
	s = r.tr.begin("arch.build", -1, 0, round)
	dev, err := mussti.NewDeviceErr(mussti.DeviceConfigFor(c.NumQubits))
	r.tr.end(s)
	if err != nil {
		return svcResult{}, fmt.Errorf("%s: %w", q.name, err)
	}
	return compileResult(ctx, q.name, c, k, dev)
}

// libraryResult compiles a built-in app the way the service resolves a
// request that names only the app: MUSS-TI, paper defaults, the default
// EML-QCCD device for its size.
func libraryResult(ctx context.Context, app string) (svcResult, error) {
	c, err := mussti.BenchmarkByName(app)
	if err != nil {
		return svcResult{}, err
	}
	k, err := countGates(c)
	if err != nil {
		return svcResult{}, err
	}
	dev, err := mussti.NewDeviceErr(mussti.DeviceConfigFor(c.NumQubits))
	if err != nil {
		return svcResult{}, err
	}
	return compileResult(ctx, app, c, k, dev)
}

// compileResult compiles c with MUSS-TI and the paper's defaults, checks
// the schedule against the circuit's counts k, and returns it in the
// service's response form.
func compileResult(ctx context.Context, label string, c *mussti.Circuit, k gateCounts, dev *mussti.Device) (svcResult, error) {
	comp, err := mussti.LookupCompiler("mussti")
	if err != nil {
		return svcResult{}, err
	}
	res, err := comp.Compile(ctx, c, dev, nil)
	if err != nil {
		return svcResult{}, fmt.Errorf("%s: %w", label, err)
	}
	if err := checkResult(k, res); err != nil {
		return svcResult{}, fmt.Errorf("%s library compile: %w", label, err)
	}
	m := res.Metrics
	return svcResult{
		App: label, Compiler: mussti.CompilerLabel(comp), Qubits: c.NumQubits, TwoQubit: k.twoQubit,
		Shuttles: m.Shuttles, ChainSwaps: m.ChainSwaps, InsertedSwaps: m.InsertedSwaps, FiberGates: m.FiberGates,
		TimeUS: m.MakespanUS, Fidelity: m.Fidelity.Value(), Log10F: m.Fidelity.Log10(),
	}, nil
}

// serviceMetrics reads GET /metrics.
func serviceMetrics(ctx context.Context, client *http.Client, base string) (mussti.ServiceMetrics, error) {
	var snap mussti.ServiceMetrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return snap, fmt.Errorf("reading /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("reading /metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("reading /metrics: %w", err)
	}
	return snap, nil
}
