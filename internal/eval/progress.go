//mussti:allow=determinism progress heartbeats are wall-clock by design and never feed results

package eval

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// progressSink serialises tick lines from all in-flight jobs onto one
// writer. Jobs attach a jobProgress (a core.Observer) per measurement; the
// sink throttles output per job so a multi-minute SQRT compile renders a
// heartbeat, not a firehose.
type progressSink struct {
	mu    sync.Mutex
	w     io.Writer
	every time.Duration
}

const progressInterval = time.Second

func newProgressSink(w io.Writer) *progressSink {
	return &progressSink{w: w, every: progressInterval}
}

func (ps *progressSink) printf(format string, args ...any) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	fmt.Fprintf(ps.w, format, args...)
}

// jobProgress observes one measurement. Compiler callbacks arrive on a
// single goroutine (the job's worker), so the counters need no locking —
// only the shared sink does.
type jobProgress struct {
	sink  *progressSink
	label string
	start time.Time
	last  time.Time

	gatesDone, gatesTotal int
	shuttles              int
	evictions             int
	swaps                 int
}

func (ps *progressSink) job(label string) *jobProgress {
	now := time.Now()
	return &jobProgress{sink: ps, label: label, start: now, last: now}
}

func (p *jobProgress) GateScheduled(done, total int) {
	p.gatesDone, p.gatesTotal = done, total
	p.tick()
}

func (p *jobProgress) Shuttle(q, from, to int) {
	p.shuttles++
	p.tick()
}

func (p *jobProgress) Eviction(victim, from, to int) {
	p.evictions++
	p.tick()
}

func (p *jobProgress) SwapInserted(a, b int) {
	p.swaps++
	p.tick()
}

// tick emits one line per throttle interval:
//
//	[SQRT_n299/MUSS-TI] 1520/74866 gates  3210 shuttles  208 evictions  4 swaps  (12s)
func (p *jobProgress) tick() {
	now := time.Now()
	if now.Sub(p.last) < p.sink.every {
		return
	}
	p.last = now
	p.sink.printf("[%s] %d/%d gates  %d shuttles  %d evictions  %d swaps  (%s)\n",
		p.label, p.gatesDone, p.gatesTotal, p.shuttles, p.evictions, p.swaps,
		now.Sub(p.start).Round(time.Second))
}

// finish emits the job's closing line (always, regardless of throttling).
func (p *jobProgress) finish(cached bool) {
	if cached {
		p.sink.printf("[%s] served from measurement cache\n", p.label)
		return
	}
	p.sink.printf("[%s] done: %d/%d gates  %d shuttles  %d evictions  %d swaps  (%s)\n",
		p.label, p.gatesDone, p.gatesTotal, p.shuttles, p.evictions, p.swaps,
		time.Since(p.start).Round(time.Millisecond))
}

// label names a job for progress lines, e.g. "SQRT_n299/MUSS-TI". The
// compiler part is the registry compiler's display label.
func (j Job) label() string { return j.Spec.App + "/" + labelFor(j.Spec.Compiler) }
