package eval

import (
	"fmt"
	"strings"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
)

// Extension experiments beyond the paper's figures. They back claims the
// paper makes in prose with measurements:
//
//   - "lru": §3.2 argues the LRU qubit-replacement scheduler is
//     near-optimal; this ablation compares LRU against FIFO, random and the
//     clairvoyant Belady policy on the medium suite.
//   - "ports": §2.2 motivates minimising optical ports per module; this
//     sweep quantifies the fidelity/shuttle cost of port-limited optical
//     zones (2..16 ports).
func init() {
	extensions = []Experiment{
		experiment("lru", "Extension: replacement-policy ablation (LRU vs FIFO/random/Belady)",
			LRUAblation, lruPlan),
		experiment("ports", "Extension: optical-port-limit sweep (2..16 ports per module)",
			PortSweep, portsPlan),
		experiment("routing", "Extension: routing look-ahead attraction on/off",
			RoutingAblation, routingPlan),
	}
}

var extensions []Experiment

// lruPolicies are the conflict-handling policies under comparison, in
// column order.
var lruPolicies = []core.ReplacementPolicy{
	core.ReplaceLRU, core.ReplaceFIFO, core.ReplaceRandom, core.ReplaceBelady,
}

// LRUAblation compares the conflict-handling policies on the medium suite,
// reporting shuttles — the metric replacement directly controls.
func LRUAblation() (string, error) { return runPlan(planOf(lruPlan)) }

func lruPlan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, musstiDefault)
	if err != nil {
		return nil, err
	}
	jobsFor := func(name string) ([]Job, error) {
		var js []Job
		for _, app := range bench.MediumSuite() {
			for _, pol := range lruPolicies {
				js = append(js, Job{Spec: CompileSpec{
					App: app, Compiler: name,
					Config: &core.CompileConfig{Mapping: core.MappingTrivial, Replacement: pol},
				}})
			}
		}
		return js, nil
	}
	renderFor := func(name string, res *Results) (string, error) {
		header := []string{"Application"}
		for _, p := range lruPolicies {
			header = append(header, "shut("+p.String()+")")
		}
		tb := NewTable(fmt.Sprintf("LRU ablation — shuttle count by replacement policy (%s, trivial mapping)", labelFor(name)), header...)
		var lruExcess []float64
		for _, app := range bench.MediumSuite() {
			row := []any{app}
			shuttles := make(map[core.ReplacementPolicy]int, len(lruPolicies))
			for _, pol := range lruPolicies {
				m := res.Next()
				shuttles[pol] = m.Shuttles
				row = append(row, m.Shuttles)
			}
			tb.Add(row...)
			if b := shuttles[core.ReplaceBelady]; b > 0 {
				lruExcess = append(lruExcess, 100*(float64(shuttles[core.ReplaceLRU])/float64(b)-1))
			}
		}
		var out strings.Builder
		out.WriteString(tb.String())
		fmt.Fprintf(&out, "LRU excess over clairvoyant Belady: %.1f%% (the paper's \"near-optimal\" claim)\n", mean(lruExcess))
		return out.String(), nil
	}
	return perCompilerPlan(comps, jobsFor, renderFor)
}

// RoutingAblation compares zone selection with and without the look-ahead
// attraction term on the small and medium suites (grid and EML): the term
// is this implementation's refinement of the paper's multi-level rule, so
// its contribution is measured rather than assumed.
func RoutingAblation() (string, error) { return runPlan(planOf(routingPlan)) }

func routingPlan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, musstiDefault)
	if err != nil {
		return nil, err
	}
	apps := append(append([]string{}, bench.SmallSuite()...), bench.MediumSuite()...)
	jobsFor := func(name string) ([]Job, error) {
		var js []Job
		for _, app := range apps {
			js = append(js,
				Job{Spec: CompileSpec{App: app, Compiler: name, Config: core.NewCompileConfig()}},
				Job{Spec: CompileSpec{App: app, Compiler: name, Config: core.NewCompileConfig(core.WithRoutingLookAhead(false))}},
			)
		}
		return js, nil
	}
	renderFor := func(name string, res *Results) (string, error) {
		tb := NewTable(fmt.Sprintf("Routing look-ahead ablation — shuttles with/without attraction (%s)", labelFor(name)),
			"Application", "with", "without", "delta%")
		for _, app := range apps {
			mW, mWo := res.Next(), res.Next()
			delta := 0.0
			if mWo.Shuttles > 0 {
				delta = 100 * (float64(mWo.Shuttles) - float64(mW.Shuttles)) / float64(mWo.Shuttles)
			}
			tb.Add(app, mW.Shuttles, mWo.Shuttles, fmt.Sprintf("%.1f", delta))
		}
		return tb.String(), nil
	}
	return perCompilerPlan(comps, jobsFor, renderFor)
}

// PortSweep measures the cost of limiting the optical zone to a fixed
// number of ion-photon ports on the medium suite.
func PortSweep() (string, error) { return runPlan(planOf(portsPlan)) }

func portsPlan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, musstiDefault)
	if err != nil {
		return nil, err
	}
	ports := []int{2, 4, 8, 16}
	jobsFor := func(name string) ([]Job, error) {
		var js []Job
		for _, app := range bench.MediumSuite() {
			c, err := bench.ByName(app)
			if err != nil {
				return nil, err
			}
			for _, p := range ports {
				cfg := arch.DefaultConfig(c.NumQubits)
				cfg.OpticalCapacity = p
				js = append(js, Job{Spec: CompileSpec{App: app, Compiler: name, Arch: cfg}})
			}
		}
		return js, nil
	}
	renderFor := func(name string, res *Results) (string, error) {
		header := []string{"Application"}
		for _, p := range ports {
			header = append(header, fmt.Sprintf("fid(p=%d)", p))
		}
		for _, p := range ports {
			header = append(header, fmt.Sprintf("shut(p=%d)", p))
		}
		tb := NewTable(fmt.Sprintf("Optical-port sweep — fidelity and shuttles vs ports per module (%s)", labelFor(name)), header...)
		for _, app := range bench.MediumSuite() {
			fids := make([]any, 0, len(ports))
			shuts := make([]any, 0, len(ports))
			for range ports {
				m := res.Next()
				fids = append(fids, FormatLog10F(m.Log10F))
				shuts = append(shuts, m.Shuttles)
			}
			row := append([]any{app}, fids...)
			row = append(row, shuts...)
			tb.Add(row...)
		}
		return tb.String(), nil
	}
	return perCompilerPlan(comps, jobsFor, renderFor)
}
