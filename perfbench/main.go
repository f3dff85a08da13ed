// Command perfbench is the end-to-end and per-layer benchmark of the MUSS-TI
// reproduction. It drives the compiler, the experiment Runner and the HTTP
// compilation service through their public entry points, checks every
// output against properties computed apart from the program, and prints one
// JSON result object as the last line of standard output.
//
//	perfbench --workload compile-paper --seed 1 --seconds 20 --trace 0
//
// Workloads: compile-paper (every Fig. 6 point through Compiler.Compile),
// suite-runner (the whole evaluation through a fresh Runner per round) and
// service-mixed (an open-loop request mix against an in-process service).
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, and the recorded spans are written to
// .bench_build/traces/. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procStart approximates the process start: package variables initialise
// before main runs, so setup_s covers runtime start-up plus set-up.
var procStart = time.Now()

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries what every workload shares: its arguments, the span recorder
// and the accumulating result.
type run struct {
	seed   uint64
	budget time.Duration
	traced bool
	tr     *tracer
	res    result
	setupS float64 // process start to the end of set-up
	procs  int     // GOMAXPROCS for the rounds
}

func (r *run) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a check failure: the result stays printable, but correct
// turns false and the reason goes to standard error.
func (r *run) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// setupDone stamps the end of set-up, measured from procStart, and lets
// the rounds use every CPU again (see mainErr).
func (r *run) setupDone() {
	r.setupS = time.Since(procStart).Seconds()
	runtime.GOMAXPROCS(r.procs)
}

var workloads = map[string]func(*run) error{
	"compile-paper": compilePaper,
	"suite-runner":  suiteRunner,
	"service-mixed": serviceMixed,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "compile-paper, suite-runner or service-mixed")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 20, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	r := &run{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		tr:     newTracer(*trace == 1),
		res:    result{Correct: true, Metrics: map[string]metric{}},
	}
	// Set-up is sequential code. On one P the garbage collector interleaves
	// with it in the same order on every run; with a second P free, its
	// background workers decide the set-up time by their timing (4 or
	// 9 ms on compile-paper on the reference VM). setupDone restores the
	// default.
	r.procs = runtime.GOMAXPROCS(1)
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.traced {
		if err := r.tr.write(*workload, r.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// roundSet lists the rounds a run made.
type roundSet struct {
	n             int
	traced, plain []int // rounds with and without spans
}

// rounds calls round(i, traced) for i = 0, 1, ... and starts another round
// only while the previous round's duration still fits into the budget, so a
// run attempts whole rounds and ends close to --seconds; at least three
// rounds run whatever the budget. Each round starts on a collected heap, so
// no round pays for collecting the garbage of the one before. A traced run
// records spans in even rounds only, so it can report what the spans cost.
func (r *run) rounds(round func(i int, traced bool) error) (roundSet, error) {
	var rs roundSet
	start := time.Now()
	var last time.Duration
	for rs.n < 3 || time.Since(start)+last <= r.budget {
		runtime.GC()
		traced := r.traced && rs.n%2 == 0
		r.tr.on = traced
		t := time.Now()
		err := round(rs.n, traced)
		r.tr.on = false
		if err != nil {
			return rs, err
		}
		last = time.Since(t)
		if traced {
			rs.traced = append(rs.traced, rs.n)
		} else {
			rs.plain = append(rs.plain, rs.n)
		}
		rs.n++
	}
	return rs, nil
}

// overheadPct compares the median of a per-round figure over the traced
// and the untraced rounds, in percent of the untraced median.
func overheadPct(perRound []float64, rs roundSet) float64 {
	pick := func(idx []int) []float64 {
		out := make([]float64, 0, len(idx))
		for _, i := range idx {
			out = append(out, perRound[i])
		}
		return out
	}
	base := median(pick(rs.plain))
	return 100 * (median(pick(rs.traced)) - base) / base
}

// allocMB reports the bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// peakRSSMB reports the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN when empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
