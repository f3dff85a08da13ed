package baseline

import (
	"context"
	"errors"
	"testing"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
)

// TestCompileContextPreCancelled: a cancelled context aborts a baseline
// compile at the first frontier step and surfaces ctx.Err().
func TestCompileContextPreCancelled(t *testing.T) {
	c := bench.MustByName("Adder_n128")
	g := arch.MustNewGrid(3, 4, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	for _, algo := range []Algorithm{Murali, Dai, MQT} {
		if _, err := registryCompile(ctx, algo, c, g, core.CompileConfig{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", algo, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled compiles took %s, want a prompt return", elapsed)
	}
}

// countingObserver tallies callbacks for the observer cross-checks.
type countingObserver struct {
	gatesDone, gatesTotal      int
	shuttles, evictions, swaps int
}

func (o *countingObserver) GateScheduled(done, total int) { o.gatesDone, o.gatesTotal = done, total }
func (o *countingObserver) Shuttle(q, from, to int)       { o.shuttles++ }
func (o *countingObserver) Eviction(victim, from, to int) { o.evictions++ }
func (o *countingObserver) SwapInserted(a, b int)         { o.swaps++ }

// TestObserverSeesBaselineEvents: the observer's move tally must match the
// engine's shuttle metric (every hop and eviction reports exactly once),
// and the final gate tick must cover the whole circuit.
func TestObserverSeesBaselineEvents(t *testing.T) {
	c := bench.MustByName("QAOA_n32")
	g := arch.MustNewGrid(2, 2, 12)
	obs := &countingObserver{}
	res, err := registryCompile(context.Background(), Murali, c, g, core.CompileConfig{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if obs.gatesDone != obs.gatesTotal || obs.gatesDone == 0 {
		t.Errorf("final gate tick %d/%d, want a complete pass", obs.gatesDone, obs.gatesTotal)
	}
	if got := obs.shuttles + obs.evictions; got != res.Metrics.Shuttles {
		t.Errorf("observer saw %d moves, metrics count %d shuttles", got, res.Metrics.Shuttles)
	}
	if obs.swaps != 0 {
		t.Errorf("baselines insert no SWAPs, observer saw %d", obs.swaps)
	}
}

// TestObserverDoesNotChangeBaselineSchedule: observation is read-only.
func TestObserverDoesNotChangeBaselineSchedule(t *testing.T) {
	c := bench.MustByName("QAOA_n32")
	g := arch.MustNewGrid(2, 2, 12)
	bare, err := registryCompile(context.Background(), Dai, c, g, core.CompileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := registryCompile(context.Background(), Dai, c, g, core.CompileConfig{Observer: &countingObserver{}})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Metrics != observed.Metrics {
		t.Errorf("metrics differ with observer attached: %+v vs %+v", bare.Metrics, observed.Metrics)
	}
}
