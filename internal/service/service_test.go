package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/core"
	"mussti/internal/eval"
)

// hookCompiler is a registry compiler whose behaviour each test swaps in:
// the registry is process-wide and registration never replaces, so the one
// registered instance delegates through a settable function.
type hookCompiler struct {
	mu sync.Mutex
	fn func(ctx context.Context) (*core.Result, error)
}

func (h *hookCompiler) Name() string { return "svc-test" }

func (h *hookCompiler) Compile(ctx context.Context, c *circuit.Circuit, t arch.Target, cfg *core.CompileConfig) (*core.Result, error) {
	h.mu.Lock()
	fn := h.fn
	h.mu.Unlock()
	if fn == nil {
		return &core.Result{}, nil
	}
	return fn(ctx)
}

var testCompiler = &hookCompiler{}

func init() {
	core.MustRegisterCompiler(testCompiler)
}

// set installs fn as the test compiler's behaviour for one test.
func (h *hookCompiler) set(t *testing.T, fn func(ctx context.Context) (*core.Result, error)) {
	t.Helper()
	h.mu.Lock()
	h.fn = fn
	h.mu.Unlock()
	t.Cleanup(func() {
		h.mu.Lock()
		h.fn = nil
		h.mu.Unlock()
	})
}

// newTestServer starts a service over a fresh runner (fresh memo: tests
// never share cache entries) and returns it with its HTTP front.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Runner == nil {
		opts.Runner = eval.NewRunner(4)
	}
	if opts.StreamInterval == 0 {
		opts.StreamInterval = 10 * time.Millisecond
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompile(t *testing.T, url string, body string) (*http.Response, func()) {
	t.Helper()
	resp, err := http.Post(url+"/v1/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, func() { resp.Body.Close() }
}

// decodeDone reads a non-streamed compile response.
func decodeDone(t *testing.T, resp *http.Response) doneEvent {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var ev doneEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Event != "done" {
		t.Fatalf("event = %q, want done", ev.Event)
	}
	return ev
}

func getMetrics(t *testing.T, url string) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCompileBuiltin: a built-in benchmark compiles end to end with the real
// MUSS-TI compiler; the repeat request is served by the memo and /metrics
// reflects both.
func TestCompileBuiltin(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"app":"GHZ_n4"}`
	resp, done := postCompile(t, ts.URL, body)
	ev := decodeDone(t, resp)
	done()
	if ev.Result.App != "GHZ_n4" || ev.Result.Qubits != 4 {
		t.Fatalf("result = %+v", ev.Result)
	}
	if ev.Result.Compiler != "MUSS-TI" {
		t.Errorf("compiler label = %q, want MUSS-TI", ev.Result.Compiler)
	}

	resp, done = postCompile(t, ts.URL, body)
	ev2 := decodeDone(t, resp)
	done()
	if ev2.Result != ev.Result {
		t.Errorf("repeat result differs: %+v vs %+v", ev2.Result, ev.Result)
	}
	snap := getMetrics(t, ts.URL)
	if snap.Requests != 2 || snap.Compiles != 1 || snap.CacheServed != 1 {
		t.Errorf("metrics = requests %d compiles %d cached %d, want 2/1/1",
			snap.Requests, snap.Compiles, snap.CacheServed)
	}
	if snap.Memo.Hits != 1 || snap.Memo.HitRate != 0.5 {
		t.Errorf("memo stats = %+v, want 1 hit, rate 0.5", snap.Memo)
	}
	if snap.P50MS < 0 || snap.P99MS < snap.P50MS {
		t.Errorf("latency quantiles p50=%v p99=%v", snap.P50MS, snap.P99MS)
	}
	if snap.CompilesPerSec <= 0 {
		t.Errorf("compiles_per_sec = %v, want > 0", snap.CompilesPerSec)
	}
}

// TestCompileStreaming: stream:true responds with NDJSON events — accepted
// first, done last — and the SSE variant frames the same events as data:
// lines.
func TestCompileStreaming(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, done := postCompile(t, ts.URL, `{"app":"GHZ_n8","stream":true}`)
	defer done()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least accepted+done", len(events))
	}
	if events[0]["event"] != "accepted" {
		t.Errorf("first event = %v", events[0])
	}
	last := events[len(events)-1]
	if last["event"] != "done" {
		t.Fatalf("last event = %v", last)
	}

	// SSE framing of the same request (memo-served now, still streamed).
	req, _ := http.NewRequest("POST", ts.URL+"/v1/compile", strings.NewReader(`{"app":"GHZ_n8","stream":true}`))
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("sse content type = %q", ct)
	}
	raw, _ := io.ReadAll(sresp.Body)
	if !bytes.Contains(raw, []byte("data: ")) || !bytes.Contains(raw, []byte(`"event":"done"`)) {
		t.Errorf("sse body missing frames: %s", raw)
	}
}

// TestCoalescing: concurrent identical requests compile once — the memo
// singleflight makes the followers wait for (or replay) the leader's result
// instead of compiling again.
func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	var calls int
	var mu sync.Mutex
	testCompiler.set(t, func(ctx context.Context) (*core.Result, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		select {
		case <-release:
			return &core.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	_, ts := newTestServer(t, Options{MaxInFlight: 4})

	const n = 3
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
				strings.NewReader(`{"app":"GHZ_n4","compiler":"svc-test"}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			errs <- nil
		}()
	}
	// Let the requests land and coalesce before releasing the leader. The
	// sleep only widens the window in which coalescing is observable; the
	// calls==1 assertion holds under any interleaving (later arrivals replay
	// the memoized result).
	time.Sleep(50 * time.Millisecond)
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("compiler ran %d times for %d identical requests, want 1", calls, n)
	}
}

// TestDisconnectCancels: a client that disconnects mid-compile cancels the
// compile within one scheduler step, and the handler's compile goroutine is
// joined — the service returns to its goroutine baseline.
func TestDisconnectCancels(t *testing.T) {
	started := make(chan struct{}, 1)
	cancelled := make(chan struct{}, 1)
	testCompiler.set(t, func(ctx context.Context) (*core.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		cancelled <- struct{}{}
		return nil, ctx.Err()
	})
	_, ts := newTestServer(t, Options{})
	client := ts.Client()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/compile",
		strings.NewReader(`{"app":"GHZ_n4","compiler":"svc-test","stream":true}`))
	respErr := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		respErr <- err
	}()

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("compile never started")
	}
	cancel()
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("disconnect did not cancel the compile")
	}
	<-respErr
	client.CloseIdleConnections()

	// The compile goroutine and the aborted connection's goroutines must
	// drain; poll briefly since teardown is asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked: %d > baseline %d", n, baseline)
	}

	// The service still serves after the aborted request.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after disconnect: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestAdmissionControl: requests beyond MaxInFlight+MaxQueue are rejected
// with 429 immediately, and the rejection is counted.
func TestAdmissionControl(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	testCompiler.set(t, func(ctx context.Context) (*core.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &core.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, ts := newTestServer(t, Options{MaxInFlight: 1, MaxQueue: 1})
	var releaseOnce sync.Once
	unblockFirst := func() { releaseOnce.Do(func() { close(release) }) }
	// Registered after the server, so it runs before the server's Close: a
	// failed check must not leave the first compile holding the server.
	t.Cleanup(unblockFirst)

	post := func(app string, out chan<- int) {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
			strings.NewReader(`{"app":"`+app+`","compiler":"svc-test"}`))
		if err != nil {
			out <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out <- resp.StatusCode
	}
	first := make(chan int, 1)
	go post("GHZ_n4", first)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first compile never started")
	}
	second := make(chan int, 1)
	go post("GHZ_n8", second)
	// Wait until the second request occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	third := make(chan int, 1)
	go post("GHZ_n16", third)
	if code := <-third; code != http.StatusTooManyRequests {
		t.Fatalf("overflow request status = %d, want 429", code)
	}

	unblockFirst()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request status = %d", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Fatalf("second request status = %d", code)
	}
	snap := getMetrics(t, ts.URL)
	if snap.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", snap.Rejected)
	}
	if snap.Requests != 2 {
		t.Errorf("requests = %d, want 2 (the 429 is not admitted)", snap.Requests)
	}

	// A client that disconnects while queued leaves the queue without ever
	// holding the slot: the gauges return to 0, and the next request takes
	// its queue place and is admitted.
	started2 := make(chan struct{}, 4)
	release2 := make(chan struct{})
	var release2Once sync.Once
	unblock := func() { release2Once.Do(func() { close(release2) }) }
	t.Cleanup(unblock) // a failed check must not leave the blocker holding the server
	testCompiler.set(t, func(ctx context.Context) (*core.Result, error) {
		started2 <- struct{}{}
		select {
		case <-release2:
			return &core.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	waitQueued := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.queued.Load() != n {
			if time.Now().After(deadline) {
				t.Fatalf("queued = %d, want %d", s.queued.Load(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	blocker := make(chan int, 1)
	go post("GHZ_n16", blocker)
	select {
	case <-started2:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking compile never started")
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/compile",
		strings.NewReader(`{"app":"GHZ_n24","compiler":"svc-test"}`))
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitQueued(1)
	cancel()
	<-gone
	waitQueued(0)
	next := make(chan int, 1)
	go post("GHZ_n32", next)
	waitQueued(1)
	unblock()
	if code := <-blocker; code != http.StatusOK {
		t.Fatalf("blocking request status = %d", code)
	}
	if code := <-next; code != http.StatusOK {
		t.Fatalf("request after the disconnect: status = %d, want 200", code)
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.queued.Load() != 0 || s.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after the disconnect: queued = %d, in flight = %d, want 0/0",
				s.queued.Load(), s.inFlight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snap := getMetrics(t, ts.URL); snap.Requests != 4 || snap.Rejected != 1 {
		t.Errorf("requests = %d, rejected = %d, want 4/1 (the disconnected waiter is neither)",
			snap.Requests, snap.Rejected)
	}
}

// TestCompileQASM: an inline QASM circuit compiles, and the identical
// resubmission is served by the cache under its content-hash key.
func TestCompileQASM(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	qasm := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];`
	body, err := json.Marshal(map[string]any{"qasm": qasm, "name": "ghz3", "lower": true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, done := postCompile(t, ts.URL, string(body))
		ev := decodeDone(t, resp)
		done()
		if ev.Result.App != "ghz3" || ev.Result.Qubits != 3 {
			t.Fatalf("result = %+v", ev.Result)
		}
	}
	snap := getMetrics(t, ts.URL)
	if snap.Compiles != 1 || snap.CacheServed != 1 {
		t.Errorf("metrics = compiles %d cached %d, want 1/1", snap.Compiles, snap.CacheServed)
	}
}

// TestBadRequests: malformed requests are 400s with a JSON error body, and
// never touch admission.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"both sources", `{"app":"GHZ_n4","qasm":"OPENQASM 2.0;"}`},
		{"unknown compiler", `{"app":"GHZ_n4","compiler":"nope"}`},
		{"unknown app", `{"app":"NOPE_n4"}`},
		{"unknown field", `{"app":"GHZ_n4","bogus":1}`},
		{"bad mapping", `{"app":"GHZ_n4","config":{"mapping":"psychic"}}`},
		{"arch and grid", `{"app":"GHZ_n4","arch":{"modules":4},"grid":{"rows":2,"cols":2,"capacity":4}}`},
		{"partial arch", `{"app":"GHZ_n4","arch":{"trap_capacity":8}}`},
		{"bad qasm", `{"qasm":"qreg q[2]; banana q[0];"}`},
		{"qasm over qubit cap", `{"qasm":"qreg q[1000000000];"}`},
		{"app over qubit cap", `{"app":"qft_n1000000"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, done := postCompile(t, ts.URL, tc.body)
			defer done()
			if resp.StatusCode != http.StatusBadRequest {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, b)
			}
			var ev errorEvent
			if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil || ev.Event != "error" || ev.Error == "" {
				t.Fatalf("error body = %+v, %v", ev, err)
			}
		})
	}
	if snap := getMetrics(t, ts.URL); snap.Requests != 0 {
		t.Errorf("bad requests were admitted: requests = %d", snap.Requests)
	}
}

// TestListings: the discovery endpoints report the registered compilers and
// the benchmark families.
func TestListings(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/compilers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var comps []compilerInfo
	if err := json.NewDecoder(resp.Body).Decode(&comps); err != nil {
		t.Fatal(err)
	}
	found := map[string]string{}
	for _, c := range comps {
		found[c.Name] = c.Label
	}
	if found["mussti"] != "MUSS-TI" {
		t.Errorf("compilers = %v, want mussti→MUSS-TI present", found)
	}

	bresp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var info benchmarksInfo
	if err := json.NewDecoder(bresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	hasGHZ := false
	for _, f := range info.Families {
		if f == "ghz" {
			hasGHZ = true
		}
	}
	if !hasGHZ {
		t.Errorf("families = %v, want ghz present", info.Families)
	}
}

// TestDiskCacheAcrossServers: a measurement compiled by one server instance
// is served from the shared disk cache by a fresh one — the service-restart
// (and multi-replica) scenario.
func TestDiskCacheAcrossServers(t *testing.T) {
	dir := t.TempDir()
	compileOnce := func() MetricsSnapshot {
		dc, err := eval.NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := eval.NewRunner(2)
		r.SetDiskCache(dc)
		_, ts := newTestServer(t, Options{Runner: r})
		resp, done := postCompile(t, ts.URL, `{"app":"GHZ_n4"}`)
		decodeDone(t, resp)
		done()
		return getMetrics(t, ts.URL)
	}
	first := compileOnce()
	if first.Compiles != 1 || first.Disk.Hits != 0 {
		t.Fatalf("first server: %+v", first)
	}
	second := compileOnce()
	if second.Compiles != 0 || second.CacheServed != 1 || second.Disk.Hits != 1 {
		t.Fatalf("second server should be disk-served: compiles %d cached %d disk %+v",
			second.Compiles, second.CacheServed, second.Disk)
	}
}
