package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Start and End are nanoseconds since procStart; Parent is the index of the
// enclosing span (-1 for none); Req groups the spans of one request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Round  int    `json:"round"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing: begin returns -1 and end ignores it.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, req int64, round int) int {
	if !t.on {
		return -1
	}
	now := int64(time.Since(procStart))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req, Round: round})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(procStart))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already finished span of duration d ending now — for
// work whose start the benchmark only learns afterwards (Runner job hooks).
func (t *tracer) add(name string, parent int, round int, d time.Duration) {
	if !t.on {
		return
	}
	now := int64(time.Since(procStart))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now - int64(d), End: now, Parent: parent, Round: round})
	t.mu.Unlock()
}

// perRound sums the durations of the named spans per listed round, in ms
// (round -1 is set-up); a round without such spans reads 0.
func (t *tracer) perRound(name string, rounds []int) []float64 {
	at := make(map[int]int, len(rounds))
	for i, r := range rounds {
		at[r] = i
	}
	out := make([]float64, len(rounds))
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if i, ok := at[s.Round]; ok && s.Name == name {
			out[i] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// layerMS is the median over the listed rounds of perRound(name); 0 when
// no round is listed.
func (t *tracer) layerMS(name string, rounds []int) float64 {
	if len(rounds) == 0 {
		return 0
	}
	return median(t.perRound(name, rounds))
}

// write stores the spans as JSON lines under .bench_build/traces.
func (t *tracer) write(workload string, seed uint64) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
