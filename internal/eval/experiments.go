package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
)

// Experiment regenerates one table or figure of the paper and renders it as
// text. Run may take seconds for the large-scale figures.
type Experiment struct {
	// ID is the paper's label: "table2", "fig6", ... "fig13".
	ID string
	// Description summarises what the paper shows there.
	Description string
	// Run executes the experiment sequentially and returns its rendered
	// tables.
	Run func() (string, error)
	// Plan decomposes the experiment into independent measurement jobs for
	// the concurrent runner; see RunContext.
	Plan PlanFunc
	// planWith builds the plan restricted to the given registered compiler
	// names (nil = the experiment's default compiler set); see CollectWith.
	planWith func(compilers []string) (*Plan, error)
}

// RunContext executes the experiment on the given runner (nil = sequential
// on the calling goroutine), honouring ctx cancellation. Output is
// byte-identical to Run at any worker count: jobs carry their paper-order
// positions and the renderer consumes them in that order.
func (e Experiment) RunContext(ctx context.Context, r *Runner) (string, error) {
	out, _, err := e.CollectContext(ctx, r)
	return out, err
}

// CollectContext is RunContext, additionally returning the experiment's
// structured Measurement rows in job order — the data behind the rendered
// text, for CSV export and other structured sinks. Experiments without a
// Plan render text only (nil measurements).
func (e Experiment) CollectContext(ctx context.Context, r *Runner) (string, []Measurement, error) {
	if e.Plan == nil {
		out, err := e.Run()
		return out, nil, err
	}
	p, err := e.Plan()
	if err != nil {
		return "", nil, err
	}
	return p.ExecuteCollect(ctx, r)
}

// CollectWith is CollectContext restricted to the given registered compiler
// names: the experiment measures (and renders columns or sections for) only
// those compilers, in the given order. Any registered compiler qualifies —
// including out-of-tree ones — so `-compilers=mussti,mine` puts a custom
// compiler into the paper's tables. An empty list means the experiment's
// default compiler set, which reproduces the paper byte-for-byte.
func (e Experiment) CollectWith(ctx context.Context, r *Runner, compilers []string) (string, []Measurement, error) {
	if len(compilers) == 0 {
		return e.CollectContext(ctx, r)
	}
	if e.planWith == nil {
		return "", nil, fmt.Errorf("eval: experiment %s does not support compiler selection", e.ID)
	}
	p, err := e.planWith(compilers)
	if err != nil {
		return "", nil, err
	}
	return p.ExecuteCollect(ctx, r)
}

// planOf adapts a compiler-selectable planner to the no-selection PlanFunc.
func planOf(pw func(compilers []string) (*Plan, error)) PlanFunc {
	return func() (*Plan, error) { return pw(nil) }
}

// experiment wires one compiler-selectable planner into an Experiment: Plan
// and planWith both derive from pw here, so a registration cannot point the
// default path and the -compilers path at different job lists.
func experiment(id, desc string, run func() (string, error), pw func(compilers []string) (*Plan, error)) Experiment {
	return Experiment{ID: id, Description: desc, Run: run, Plan: planOf(pw), planWith: pw}
}

// resolveCompilers returns the effective compiler list for an experiment:
// sel when non-empty (every name must be registered; duplicates collapse to
// their first occurrence, so a "-compilers=mussti,mussti" typo cannot double
// columns or compilations), def otherwise.
func resolveCompilers(sel, def []string) ([]string, error) {
	if len(sel) == 0 {
		return def, nil
	}
	seen := make(map[string]bool, len(sel))
	out := make([]string, 0, len(sel))
	for _, name := range sel {
		if _, err := core.LookupCompiler(name); err != nil {
			return nil, err
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, name)
	}
	return out, nil
}

// labelFor returns a registered compiler's display label ("MUSS-TI" for
// "mussti"); unregistered names fall back to themselves.
func labelFor(name string) string {
	if c, err := core.LookupCompiler(name); err == nil {
		return core.CompilerLabel(c)
	}
	return name
}

// musstiDefault is the compiler set of the MUSS-TI-only sweeps.
var musstiDefault = []string{"mussti"}

// splitByTarget partitions a compiler selection into the names that declare
// support for the probe target's machine shape and those that don't — the
// latter are rendered as skip notes rather than failing the experiment
// mid-run. Unregistered names pass through (resolveCompilers already
// validated the selection).
func splitByTarget(comps []string, probe arch.Target) (run, skipped []string) {
	for _, name := range comps {
		if c, err := core.LookupCompiler(name); err == nil && !core.SupportsTarget(c, probe) {
			skipped = append(skipped, name)
			continue
		}
		run = append(run, name)
	}
	return run, skipped
}

// skipNotes renders one line per skipped compiler, naming the target shape
// the experiment needed.
func skipNotes(skipped []string, shape string) string {
	var out strings.Builder
	for _, name := range skipped {
		fmt.Fprintf(&out, "(%s skipped: compiler does not support the %s target)\n", labelFor(name), shape)
	}
	return out.String()
}

// perCompilerPlan builds a sweep plan over a compiler selection: jobsFor
// appends one compiler's jobs, renderFor renders its section (in the same
// job order). Sections concatenate in selection order, separated by a blank
// line; with the default single-compiler selection the output is exactly the
// single section, preserving the paper-era rendering byte for byte.
//
// Every sweep in this package targets EML-QCCD devices, so compilers that
// declare themselves incompatible with that shape (the grid-only baselines)
// are skipped with a note instead of failing the whole plan mid-run — a
// selection like "-compilers=mussti,dai" still renders the sections that
// can run.
func perCompilerPlan(comps []string, jobsFor func(name string) ([]Job, error), renderFor func(name string, res *Results) (string, error)) (*Plan, error) {
	_, skippedList := splitByTarget(comps, arch.MustNew(arch.DefaultConfig(0)))
	skipped := make(map[string]bool, len(skippedList))
	for _, name := range skippedList {
		skipped[name] = true
	}
	var jobs []Job
	for _, name := range comps {
		if skipped[name] {
			continue
		}
		js, err := jobsFor(name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, js...)
	}
	render := func(res *Results) (string, error) {
		var out strings.Builder
		for i, name := range comps {
			if i > 0 {
				out.WriteByte('\n')
			}
			if skipped[name] {
				out.WriteString(skipNotes([]string{name}, "EML-QCCD device"))
				continue
			}
			sec, err := renderFor(name, res)
			if err != nil {
				return "", err
			}
			out.WriteString(sec)
		}
		return out.String(), nil
	}
	return &Plan{Jobs: jobs, Render: render}, nil
}

// sweepTitle renders a sweep section title: the base title for the paper's
// own MUSS-TI section, the base plus the compiler label otherwise.
func sweepTitle(base, name string) string {
	if name == "mussti" {
		return base
	}
	return base + " — " + labelFor(name)
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		experiment("table2", "Small-scale comparison on Grid 2x2 (cap 12) and 2x3 (cap 8): shuttles, time, fidelity",
			Table2, table2Plan),
		experiment("fig6", "Architectural comparison small/medium/large: shuttles, time, fidelity",
			func() (string, error) { return Fig6() },
			func(comps []string) (*Plan, error) { return fig6Plan("", comps) }),
		experiment("fig7", "Trap capacity sweep (12-20) vs fidelity, medium apps + SQRT_n299",
			Fig7, fig7Plan),
		experiment("fig8", "Ablation of compilation techniques (Trivial/SWAP/SABRE/SABRE+SWAP)",
			Fig8, fig8Plan),
		experiment("fig9", "Look-ahead window k sweep (4-12) vs fidelity",
			Fig9, fig9Plan),
		experiment("fig10", "Compilation-time scalability vs application size",
			Fig10, fig10Plan),
		experiment("fig11", "Compilation time vs fidelity trade-off per technique",
			Fig11, fig11Plan),
		experiment("fig12", "One vs two entanglement (optical) zones, large apps",
			Fig12, fig12Plan),
		experiment("fig13", "Optimality analysis: perfect gate / perfect shuttle / MUSS-TI",
			Fig13, fig13Plan),
	}
}

// AllExperiments returns the paper experiments followed by the extension
// studies (replacement-policy ablation, optical-port sweep).
func AllExperiments() []Experiment {
	return append(Experiments(), extensions...)
}

// ByID returns the experiment (paper figure or extension) with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range AllExperiments() {
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("eval: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// table2Structures are the two Table-2 hardware configurations.
var table2Structures = []struct {
	Name       string
	Rows, Cols int
	Capacity   int
}{
	{"Grid 2x2", 2, 2, 12},
	{"Grid 2x3", 2, 3, 8},
}

// table2Compilers are Table 2's columns in paper order: the three baselines,
// then MUSS-TI ("Ours").
var table2Compilers = []string{"murali", "dai", "mqt", "mussti"}

// table2Tags are the paper's per-compiler column suffixes (the citation
// numbers of Table 2); compilers outside the paper render as "(label)".
var table2Tags = map[string]string{
	"murali": "[55]",
	"dai":    "[13]",
	"mqt":    "[70]",
	"mussti": "Ours",
}

// tagOf renders a compiler's column suffix: the paper's tag when the map
// has one, "(label)" otherwise (out-of-tree compilers).
func tagOf(tags map[string]string, name string) string {
	if t, ok := tags[name]; ok {
		return t
	}
	return "(" + labelFor(name) + ")"
}

// Table2 regenerates Table 2: the small-scale suite on both structures for
// all four compilers (Murali [55], Dai [13], MQT [70], MUSS-TI).
func Table2() (string, error) { return runPlan(planOf(table2Plan)) }

func table2Plan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, table2Compilers)
	if err != nil {
		return nil, err
	}
	// Table 2's structures are all grids; compilers that can't target a
	// grid lose their columns and get a note instead of failing the run.
	comps, skipped := splitByTarget(comps, arch.MustNewGrid(2, 2, 4))
	var jobs []Job
	for _, st := range table2Structures {
		g := arch.MustNewGrid(st.Rows, st.Cols, st.Capacity)
		for _, app := range bench.SmallSuite() {
			for _, name := range comps {
				jobs = append(jobs, Job{Spec: CompileSpec{App: app, Compiler: name, Grid: g}})
			}
		}
	}
	render := func(res *Results) (string, error) {
		var out strings.Builder
		if len(comps) == 0 {
			// Every selected compiler was target-skipped: data-less tables
			// would only confuse, so explain and stop.
			out.WriteString("table2: no selected compiler can target the QCCD grid\n")
			out.WriteString(skipNotes(skipped, "QCCD grid"))
			return out.String(), nil
		}
		for _, st := range table2Structures {
			headers := []string{"Application"}
			for _, metric := range []string{"Shut", "Time", "Fid"} {
				for _, name := range comps {
					headers = append(headers, metric+tagOf(table2Tags, name))
				}
			}
			tb := NewTable(
				fmt.Sprintf("Table 2 — %s (trap capacity %d)", st.Name, st.Capacity),
				headers...,
			)
			for _, app := range bench.SmallSuite() {
				ms := res.Take(len(comps))
				row := []any{app}
				for _, m := range ms {
					row = append(row, m.Shuttles)
				}
				for _, m := range ms {
					row = append(row, fmt.Sprintf("%.0f", m.TimeUS))
				}
				for _, m := range ms {
					row = append(row, FormatLog10F(m.Log10F))
				}
				tb.Add(row...)
			}
			out.WriteString(tb.String())
			out.WriteByte('\n')
		}
		out.WriteString(skipNotes(skipped, "QCCD grid"))
		return out.String(), nil
	}
	return &Plan{Jobs: jobs, Render: render}, nil
}

// fig6Scales are the three architectural-comparison scales of Fig. 6.
var fig6Scales = []struct {
	Name       string
	Apps       []string
	Rows, Cols int
	Capacity   int
	// OursOnGrid runs MUSS-TI on the standard grid (small scale); the
	// medium/large scales run MUSS-TI on its EML-QCCD device, which is the
	// "architectural comparison" of §5.2.
	OursOnGrid bool
}{
	{"Small Scale, 2x2", bench.SmallSuite(), 2, 2, 12, true},
	{"Middle Scale, 3x4", bench.MediumSuite(), 3, 4, 16, false},
	{"Large Scale, 4x5", bench.LargeSuite(), 4, 5, 16, false},
}

// fig6Compilers are Fig. 6's columns in paper order.
var fig6Compilers = []string{"mussti", "dai", "murali"}

// fig6Tags are Fig. 6's per-compiler column suffixes.
var fig6Tags = map[string]string{
	"mussti": "(ours)",
	"dai":    "(Dai)",
	"murali": "(Murali)",
}

// Fig6 regenerates the architectural comparison: for each scale, shuttle
// count, execution time and fidelity for MUSS-TI vs the Dai and Murali grid
// compilers.
func Fig6(scaleFilter ...string) (string, error) {
	filter := ""
	if len(scaleFilter) > 0 {
		filter = scaleFilter[0]
	}
	return runPlan(func() (*Plan, error) { return fig6Plan(filter, nil) })
}

func fig6Plan(filter string, sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, fig6Compilers)
	if err != nil {
		return nil, err
	}
	// Fig 6 is the grid-architecture comparison (MUSS-TI alone switches to
	// its EML device at the medium/large scales); grid-incapable compilers
	// are noted, not fatal.
	comps, skipped := splitByTarget(comps, arch.MustNewGrid(2, 2, 4))
	scales := fig6Scales[:0:0]
	for _, sc := range fig6Scales {
		if filter != "" && !strings.Contains(strings.ToLower(sc.Name), strings.ToLower(filter)) {
			continue
		}
		scales = append(scales, sc)
	}
	// At the medium/large scales the architectural comparison puts every
	// EML-capable compiler on its EML-QCCD device (for the built-ins that
	// is MUSS-TI alone) against the grid compilers on the grid; comparing
	// an EML-capable compiler's grid numbers to MUSS-TI's EML numbers
	// would be apples to oranges. The small scale runs everyone on the
	// grid.
	emlCapable := make(map[string]bool, len(comps))
	probe := arch.MustNew(arch.DefaultConfig(0))
	for _, name := range comps {
		if comp, err := core.LookupCompiler(name); err == nil && core.SupportsTarget(comp, probe) {
			emlCapable[name] = true
		}
	}
	var jobs []Job
	for _, sc := range scales {
		g := arch.MustNewGrid(sc.Rows, sc.Cols, sc.Capacity)
		for _, app := range sc.Apps {
			for _, name := range comps {
				spec := CompileSpec{App: app, Compiler: name}
				if sc.OursOnGrid || !emlCapable[name] {
					spec.Grid = g
				}
				jobs = append(jobs, Job{Spec: spec})
			}
		}
	}
	// The shuttle-reduction summary compares MUSS-TI against the best
	// selected baseline; it needs both sides in the selection to mean
	// anything, so a one-sided selection omits the line.
	hasOurs, hasBaseline := false, false
	for _, name := range comps {
		if name == "mussti" {
			hasOurs = true
		} else {
			hasBaseline = true
		}
	}
	render := func(res *Results) (string, error) {
		var out strings.Builder
		if len(comps) == 0 {
			out.WriteString("fig6: no selected compiler can target the QCCD grid\n")
			out.WriteString(skipNotes(skipped, "QCCD grid"))
			return out.String(), nil
		}
		for _, sc := range scales {
			headers := []string{"Application"}
			for _, metric := range []string{"Shut", "Time", "Fid"} {
				for _, name := range comps {
					headers = append(headers, metric+tagOf(fig6Tags, name))
				}
			}
			tb := NewTable(fmt.Sprintf("Fig 6 — %s (grid cap %d)", sc.Name, sc.Capacity), headers...)
			var reduction []float64
			for _, app := range sc.Apps {
				ms := res.Take(len(comps))
				row := []any{app}
				for _, m := range ms {
					row = append(row, m.Shuttles)
				}
				for _, m := range ms {
					row = append(row, fmt.Sprintf("%.0f", m.TimeUS))
				}
				for _, m := range ms {
					row = append(row, FormatLog10F(m.Log10F))
				}
				tb.Add(row...)
				// Average reduction of MUSS-TI's shuttles vs the best of the
				// selected baselines; skipped when either side is missing
				// from the selection.
				best, ours := -1, -1
				for i, name := range comps {
					if name == "mussti" {
						ours = ms[i].Shuttles
					} else if best < 0 || ms[i].Shuttles < best {
						best = ms[i].Shuttles
					}
				}
				if ours >= 0 && best > 0 {
					reduction = append(reduction, 100*(1-float64(ours)/float64(best)))
				}
			}
			out.WriteString(tb.String())
			if hasOurs && hasBaseline {
				fmt.Fprintf(&out, "average shuttle reduction vs best baseline: %.2f%%\n", mean(reduction))
			}
			out.WriteByte('\n')
		}
		out.WriteString(skipNotes(skipped, "QCCD grid"))
		return out.String(), nil
	}
	return &Plan{Jobs: jobs, Render: render}, nil
}

// Fig7 regenerates the trap-capacity analysis: MUSS-TI fidelity for
// capacities 12..20 on the medium apps and SQRT_n299.
func Fig7() (string, error) { return runPlan(planOf(fig7Plan)) }

func fig7Plan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, musstiDefault)
	if err != nil {
		return nil, err
	}
	apps := []string{"Adder_n128", "BV_n128", "GHZ_n128", "QAOA_n128", "SQRT_n299"}
	caps := []int{12, 14, 16, 18, 20}
	jobsFor := func(name string) ([]Job, error) {
		var js []Job
		for _, app := range apps {
			c, err := bench.ByName(app)
			if err != nil {
				return nil, err
			}
			for _, capacity := range caps {
				cfg := arch.DefaultConfig(c.NumQubits)
				cfg.TrapCapacity = capacity
				js = append(js, Job{Spec: CompileSpec{App: app, Compiler: name, Arch: cfg}})
			}
		}
		return js, nil
	}
	renderFor := func(name string, res *Results) (string, error) {
		tb := NewTable(fmt.Sprintf("Fig 7 — EML-QCCD trap capacity vs fidelity (%s)", labelFor(name)),
			append([]string{"Application"}, intsToHeaders("cap=", caps)...)...)
		for _, app := range apps {
			row := []any{app}
			for range caps {
				row = append(row, FormatLog10F(res.Next().Log10F))
			}
			tb.Add(row...)
		}
		return tb.String(), nil
	}
	return perCompilerPlan(comps, jobsFor, renderFor)
}

// ablationConfigs are the four Fig. 8 / Fig. 11 technique combinations.
var ablationConfigs = []struct {
	Name string
	Opts core.CompileConfig
}{
	{"Trivial", core.CompileConfig{Mapping: core.MappingTrivial}},
	{"SWAP Insert", core.CompileConfig{Mapping: core.MappingTrivial, SwapInsertion: true}},
	{"SABRE", core.CompileConfig{Mapping: core.MappingSABRE}},
	{"SABRE+SWAP", core.CompileConfig{Mapping: core.MappingSABRE, SwapInsertion: true}},
}

// Fig8 regenerates the compilation-technique ablation over the medium and
// large suites.
func Fig8() (string, error) { return runPlan(planOf(fig8Plan)) }

func fig8Plan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, musstiDefault)
	if err != nil {
		return nil, err
	}
	apps := append(append([]string{}, bench.MediumSuite()...), bench.LargeSuite()...)
	jobsFor := func(name string) ([]Job, error) {
		var js []Job
		for _, app := range apps {
			for _, cfg := range ablationConfigs {
				opts := cfg.Opts
				js = append(js, Job{Spec: CompileSpec{App: app, Compiler: name, Config: &opts}})
			}
		}
		return js, nil
	}
	renderFor := func(name string, res *Results) (string, error) {
		header := []string{"Application"}
		for _, cfg := range ablationConfigs {
			header = append(header, cfg.Name)
		}
		tb := NewTable(sweepTitle("Fig 8 — ablation of compilation techniques (fidelity)", name), header...)
		for _, app := range apps {
			row := []any{app}
			for range ablationConfigs {
				row = append(row, FormatLog10F(res.Next().Log10F))
			}
			tb.Add(row...)
		}
		return tb.String(), nil
	}
	return perCompilerPlan(comps, jobsFor, renderFor)
}

// Fig9 regenerates the look-ahead analysis: fidelity for k in {4..12} on
// the five applications of the paper's Fig. 9.
func Fig9() (string, error) { return runPlan(planOf(fig9Plan)) }

func fig9Plan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, musstiDefault)
	if err != nil {
		return nil, err
	}
	apps := []string{"QAOA_n256", "Adder_n256", "RAN_n256", "SQRT_n117", "SQRT_n299"}
	ks := []int{4, 6, 8, 10, 12}
	jobsFor := func(name string) ([]Job, error) {
		var js []Job
		for _, app := range apps {
			for _, k := range ks {
				js = append(js, Job{Spec: CompileSpec{
					App: app, Compiler: name, Config: core.NewCompileConfig(core.WithLookAhead(k)),
				}})
			}
		}
		return js, nil
	}
	renderFor := func(name string, res *Results) (string, error) {
		tb := NewTable(fmt.Sprintf("Fig 9 — look-ahead window k vs fidelity (%s)", labelFor(name)),
			append([]string{"Application"}, intsToHeaders("k=", ks)...)...)
		for _, app := range apps {
			row := []any{app}
			for range ks {
				row = append(row, FormatLog10F(res.Next().Log10F))
			}
			tb.Add(row...)
		}
		return tb.String(), nil
	}
	return perCompilerPlan(comps, jobsFor, renderFor)
}

// Fig10 regenerates the compilation-time scalability curve: wall-clock
// MUSS-TI compile time for Adder/BV/GHZ/QAOA from ~128 to ~300 qubits.
func Fig10() (string, error) { return runPlan(planOf(fig10Plan)) }

func fig10Plan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, musstiDefault)
	if err != nil {
		return nil, err
	}
	families := []string{"Adder", "BV", "GHZ", "QAOA"}
	sizes := []int{128, 160, 192, 224, 256, 288, 300}
	jobsFor := func(name string) ([]Job, error) {
		var js []Job
		for _, fam := range families {
			for _, n := range sizes {
				app := fmt.Sprintf("%s_n%d", fam, n)
				js = append(js, Job{Spec: CompileSpec{App: app, Compiler: name}})
			}
		}
		return js, nil
	}
	renderFor := func(name string, res *Results) (string, error) {
		tb := NewTable(sweepTitle("Fig 10 — compilation time (s) vs application size", name),
			append([]string{"Family"}, intsToHeaders("n=", sizes)...)...)
		for _, fam := range families {
			row := []any{fam}
			for range sizes {
				row = append(row, fmt.Sprintf("%.3f", res.Next().CompileTime.Seconds()))
			}
			tb.Add(row...)
		}
		return tb.String(), nil
	}
	p, err := perCompilerPlan(comps, jobsFor, renderFor)
	if err != nil {
		return nil, err
	}
	// Serial: the cells ARE wall-clock compile times; pool neighbours
	// would contend for CPU and inflate them.
	p.Serial = true
	return p, nil
}

// Fig11 regenerates the compile-time/fidelity trade-off scatter for the
// complex (SQRT_n128) and simple (BV_n128) applications.
func Fig11() (string, error) { return runPlan(planOf(fig11Plan)) }

func fig11Plan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, musstiDefault)
	if err != nil {
		return nil, err
	}
	apps := []string{"SQRT_n128", "BV_n128"}
	jobsFor := func(name string) ([]Job, error) {
		var js []Job
		for _, app := range apps {
			for _, cfg := range ablationConfigs {
				opts := cfg.Opts
				js = append(js, Job{Spec: CompileSpec{App: app, Compiler: name, Config: &opts}})
			}
		}
		return js, nil
	}
	renderFor := func(name string, res *Results) (string, error) {
		var out strings.Builder
		for _, app := range apps {
			tb := NewTable(sweepTitle(fmt.Sprintf("Fig 11 — %s: compilation time vs fidelity", app), name),
				"Technique", "CompileTime(s)", "Fidelity")
			for _, cfg := range ablationConfigs {
				m := res.Next()
				tb.Add(cfg.Name, fmt.Sprintf("%.3f", m.CompileTime.Seconds()), FormatLog10F(m.Log10F))
			}
			out.WriteString(tb.String())
			out.WriteByte('\n')
		}
		return out.String(), nil
	}
	p, err := perCompilerPlan(comps, jobsFor, renderFor)
	if err != nil {
		return nil, err
	}
	// Serial for the same reason as fig10: CompileTime cells must not be
	// distorted by pool contention.
	p.Serial = true
	return p, nil
}

// Fig12 regenerates the multiple-entanglement-zone analysis: large apps
// with one vs two optical zones per module.
func Fig12() (string, error) { return runPlan(planOf(fig12Plan)) }

func fig12Plan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, musstiDefault)
	if err != nil {
		return nil, err
	}
	zones := []int{1, 2}
	jobsFor := func(name string) ([]Job, error) {
		var js []Job
		for _, app := range bench.LargeSuite() {
			c, err := bench.ByName(app)
			if err != nil {
				return nil, err
			}
			for _, z := range zones {
				cfg := arch.DefaultConfig(c.NumQubits)
				cfg.OpticalZones = z
				js = append(js, Job{Spec: CompileSpec{App: app, Compiler: name, Arch: cfg}})
			}
		}
		return js, nil
	}
	renderFor := func(name string, res *Results) (string, error) {
		tb := NewTable(fmt.Sprintf("Fig 12 — one vs two entanglement zones (fidelity, %s)", labelFor(name)),
			"Application", "SingleZone", "TwoZones")
		for _, app := range bench.LargeSuite() {
			row := []any{app}
			for range zones {
				row = append(row, FormatLog10F(res.Next().Log10F))
			}
			tb.Add(row...)
		}
		return tb.String(), nil
	}
	return perCompilerPlan(comps, jobsFor, renderFor)
}

// fig13Modes are the idealisation switches of Fig. 13 in column order.
var fig13Modes = []struct{ gates, shuttle bool }{{true, false}, {false, true}, {false, false}}

// Fig13 regenerates the optimality analysis: MUSS-TI under Table-1 physics
// vs the perfect-gate and perfect-shuttle idealisations.
func Fig13() (string, error) { return runPlan(planOf(fig13Plan)) }

func fig13Plan(sel []string) (*Plan, error) {
	comps, err := resolveCompilers(sel, musstiDefault)
	if err != nil {
		return nil, err
	}
	apps := []string{
		"Adder_n128", "BV_n128", "GHZ_n128", "QAOA_n128", "SQRT_n117",
		"Adder_n298", "BV_n298", "GHZ_n298", "QAOA_n298", "SQRT_n299",
	}
	jobsFor := func(name string) ([]Job, error) {
		var js []Job
		for _, app := range apps {
			for _, mode := range fig13Modes {
				js = append(js, Job{Spec: CompileSpec{
					App: app, Compiler: name,
					Config: core.NewCompileConfig(core.WithPhysics(idealParams(mode.gates, mode.shuttle))),
				}})
			}
		}
		return js, nil
	}
	renderFor := func(name string, res *Results) (string, error) {
		// The third column is the compiler under Table-1 physics — the
		// paper's "MUSS-TI" column, labelled after the section's compiler.
		tb := NewTable(sweepTitle("Fig 13 — optimality analysis (fidelity)", name),
			"Application", "PerfectGate", "PerfectShuttle", labelFor(name))
		for _, app := range apps {
			row := []any{app}
			for range fig13Modes {
				row = append(row, FormatLog10F(res.Next().Log10F))
			}
			tb.Add(row...)
		}
		return tb.String(), nil
	}
	return perCompilerPlan(comps, jobsFor, renderFor)
}

func intsToHeaders(prefix string, xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%s%d", prefix, x)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SortedIDs returns all experiment IDs in paper order (for CLI help).
func SortedIDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
