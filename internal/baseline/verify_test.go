package baseline

import (
	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
	"mussti/internal/sim"
)

// TestBaselineSchedulesVerify replays every baseline's trace of the Fig. 6
// small and medium suites through the independent verifier, starting from
// the Result's reported InitialMapping: occupancy, gate legality, per-qubit
// program order and timing must all check out on the grid's device view.
func TestBaselineSchedulesVerify(t *testing.T) {
	g := arch.MustNewGrid(3, 4, 16)
	zones := sim.ZonesOfDevice(g.Device())
	apps := append(bench.SmallSuite(), bench.MediumSuite()...)
	for _, algo := range []Algorithm{Murali, Dai, MQT} {
		for _, app := range apps {
			c := bench.MustByName(app)
			res, err := Compile(algo, c, g, Options{Trace: true})
			if err != nil {
				t.Fatalf("%v/%s: %v", algo, app, err)
			}
			if err := sim.VerifySchedule(c, zones, res.InitialMapping, res.Trace); err != nil {
				t.Errorf("%v/%s: schedule fails verification: %v", algo, app, err)
			}
		}
	}
}
