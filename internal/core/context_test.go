package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
)

// TestCompileContextPreCancelled is the promptness contract: an already-
// cancelled context must abort the compile within one scheduler step —
// including the SABRE probe passes, which are full scheduling runs — even
// for a benchmark that takes hundreds of milliseconds to compile.
func TestCompileContextPreCancelled(t *testing.T) {
	c := bench.MustByName("SQRT_n117")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := registryCompile(ctx, c, d, *NewCompileConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A full SQRT_n117 compile takes ~0.5s on the dev machine; one
	// scheduler step is microseconds. Allow generous CI headroom.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled compile took %s, want a prompt return", elapsed)
	}
}

// TestCompileContextDeadline: an expired deadline surfaces
// context.DeadlineExceeded, not a mangled internal error.
func TestCompileContextDeadline(t *testing.T) {
	c := bench.MustByName("Adder_n128")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := registryCompile(ctx, c, d, *NewCompileConfig()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// cancelAfterGates cancels its context once the scheduler has reported n
// gate executions, pinning the cancellation to a point deep inside the run
// loop regardless of how fast the compiler gets.
type cancelAfterGates struct {
	n      int
	cancel context.CancelFunc
}

func (o *cancelAfterGates) GateScheduled(done, total int) {
	if done == o.n {
		o.cancel()
	}
}
func (o *cancelAfterGates) Shuttle(q, from, to int)       {}
func (o *cancelAfterGates) Eviction(victim, from, to int) {}
func (o *cancelAfterGates) SwapInserted(a, b int)         {}

// TestCompileContextMidCompileCancel cancels while the scheduler is deep in
// a long compile; the run must abort with ctx.Err() instead of finishing.
// (The returned error is itself the proof of interruption: a compile that
// ran to completion returns nil.) The cancellation is triggered from the
// observer after a fixed number of gates — a wall-clock timer here would
// race the compile and flake whenever the compiler gets faster.
func TestCompileContextMidCompileCancel(t *testing.T) {
	c := bench.MustByName("SQRT_n117")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := *NewCompileConfig()
	opts.Observer = &cancelAfterGates{n: 100, cancel: cancel}
	start := time.Now()
	_, err := registryCompile(ctx, c, d, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (compile was not interrupted)", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled compile took %s, want a prompt return", elapsed)
	}
}

// TestCompileContextBackgroundMatchesCompile: threading a live,
// cancellable context must not change the schedule.
func TestCompileContextBackgroundMatchesCompile(t *testing.T) {
	c := bench.MustByName("QAOA_n128")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	plain, err := registryCompile(context.Background(), c, d, *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := registryCompile(ctx, c, d, *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != withCtx.Metrics {
		t.Errorf("metrics differ: background %+v vs cancellable %+v", plain.Metrics, withCtx.Metrics)
	}
}

// countingObserver tallies every callback; used to check the observer sees
// exactly the events the scheduler's own stats count.
type countingObserver struct {
	gatesDone, gatesTotal      int
	shuttles, evictions, swaps int
}

func (o *countingObserver) GateScheduled(done, total int) { o.gatesDone, o.gatesTotal = done, total }
func (o *countingObserver) Shuttle(q, from, to int)       { o.shuttles++ }
func (o *countingObserver) Eviction(victim, from, to int) { o.evictions++ }
func (o *countingObserver) SwapInserted(a, b int)         { o.swaps++ }

// TestObserverSeesSchedulerEvents runs a single-pass compile (trivial
// mapping — SABRE would aggregate several passes) and cross-checks the
// observer's tallies against Result.Stats and the engine metrics: the
// observer is a view of the run loop, not a second bookkeeper.
func TestObserverSeesSchedulerEvents(t *testing.T) {
	c := bench.MustByName("Adder_n128")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	obs := &countingObserver{}
	opts := *NewCompileConfig()
	opts.Mapping = MappingTrivial
	opts.Observer = obs
	res, err := registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if obs.gatesDone != obs.gatesTotal || obs.gatesDone == 0 {
		t.Errorf("final gate tick %d/%d, want a complete pass", obs.gatesDone, obs.gatesTotal)
	}
	if obs.gatesDone != res.Stats.ExecutableFast+res.Stats.Routed {
		t.Errorf("observer saw %d gates, stats count %d",
			obs.gatesDone, res.Stats.ExecutableFast+res.Stats.Routed)
	}
	if obs.evictions != res.Stats.Evictions {
		t.Errorf("observer saw %d evictions, stats count %d", obs.evictions, res.Stats.Evictions)
	}
	if obs.swaps != res.Stats.SwapsInserted {
		t.Errorf("observer saw %d inserted swaps, stats count %d", obs.swaps, res.Stats.SwapsInserted)
	}
	// Every engine move flows through moveWithEviction, which reports each
	// one as either a Shuttle or an Eviction.
	if got := obs.shuttles + obs.evictions; got != res.Metrics.Shuttles {
		t.Errorf("observer saw %d moves, metrics count %d shuttles", got, res.Metrics.Shuttles)
	}
}

// TestObserverDoesNotChangeSchedule: observation must be a read-only layer.
func TestObserverDoesNotChangeSchedule(t *testing.T) {
	c := bench.MustByName("QAOA_n128")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	bare, err := registryCompile(context.Background(), c, d, *NewCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := *NewCompileConfig()
	opts.Observer = &countingObserver{}
	observed, err := registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Metrics != observed.Metrics {
		t.Errorf("metrics differ with observer attached: %+v vs %+v", bare.Metrics, observed.Metrics)
	}
}

// passObserver splits the callbacks of one compile into scheduling passes:
// a pass ends with its GateScheduled(total, total) tick, and every later
// callback belongs to the next pass.
type passObserver struct {
	t      *testing.T
	passes []passTally
}

type passTally struct{ done, total, moves int }

func (o *passObserver) current() *passTally {
	if n := len(o.passes); n == 0 || o.passes[n-1].done == o.passes[n-1].total {
		o.passes = append(o.passes, passTally{total: -1})
	}
	return &o.passes[len(o.passes)-1]
}

func (o *passObserver) GateScheduled(done, total int) {
	p := o.current()
	if done != p.done+1 || (p.total != -1 && total != p.total) {
		o.t.Errorf("pass %d: tick %d/%d after %d/%d", len(o.passes), done, total, p.done, p.total)
	}
	p.done, p.total = done, total
}
func (o *passObserver) Shuttle(q, from, to int)       { o.current().moves++ }
func (o *passObserver) Eviction(victim, from, to int) { o.current().moves++ }
func (o *passObserver) SwapInserted(a, b int)         {}

// TestObserverSeesTwoProductionPasses pins the observer order of a default
// (SABRE) compile: the trivial production pass, then the SABRE production
// pass, each complete. The reverse probe reports nothing.
func TestObserverSeesTwoProductionPasses(t *testing.T) {
	c := bench.MustByName("Adder_n128")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	trivOpts := *NewCompileConfig()
	trivOpts.Mapping = MappingTrivial
	triv, err := registryCompile(context.Background(), c, d, trivOpts)
	if err != nil {
		t.Fatal(err)
	}
	obs := &passObserver{t: t}
	opts := *NewCompileConfig()
	opts.Observer = obs
	res, err := registryCompile(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == triv.Metrics {
		t.Fatal("the trivial candidate won; the test needs a circuit where SABRE wins")
	}
	if len(obs.passes) != 2 {
		t.Fatalf("observer saw %d passes, want 2: %+v", len(obs.passes), obs.passes)
	}
	for i, p := range obs.passes {
		if p.done != p.total {
			t.Errorf("pass %d ended at %d/%d, want a complete pass", i, p.done, p.total)
		}
	}
	if got := obs.passes[0].moves; got != triv.Metrics.Shuttles {
		t.Errorf("first pass made %d moves, the trivial compile %d shuttles", got, triv.Metrics.Shuttles)
	}
	if got := obs.passes[1].moves; got != res.Metrics.Shuttles {
		t.Errorf("second pass made %d moves, the SABRE compile %d shuttles", got, res.Metrics.Shuttles)
	}
}
