package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"mussti"
	"mussti/internal/circuit/bench"
	"mussti/internal/dag"
)

// paperScale is one Fig. 6 scale: its applications and baseline grid.
type paperScale struct {
	name             string
	apps             []string
	rows, cols, capy int
}

// paperScales are the three scales of Fig. 6 (paper §5.2).
var paperScales = []paperScale{
	{"small", bench.SmallSuite(), 2, 2, 12},
	{"medium", bench.MediumSuite(), 3, 4, 16},
	{"large", bench.LargeSuite(), 4, 5, 16},
}

// knownVerifyFaults are the points whose MUSS-TI schedule the verifier
// rejects on every run (see CHANGES.md): the SWAP inserter picks the
// SWAPping qubit's next partner as its SWAP partner, and the verifier then
// finds a fiber gate on the wrong zones. Only that rejection counts as a
// failed operation until the compiler is mended; any other is a check
// failure.
var knownVerifyFaults = map[string]bool{
	"BV_n128/mussti/eml": true,
	"BV_n256/mussti/eml": true,
}

// isKnownVerifyFault reports whether err is the documented rejection of a
// point listed in knownVerifyFaults.
func isKnownVerifyFault(id string, err error) bool {
	return knownVerifyFaults[id] && strings.Contains(err.Error(), "fiber zones")
}

// paperPoint is one compile of the compile-paper workload.
type paperPoint struct {
	app, compiler, scale, machine string
	c                             *mussti.Circuit
	comp                          mussti.Compiler
	target                        mussti.Target
	k                             gateCounts
}

func (p *paperPoint) id() string { return p.app + "/" + p.compiler + "/" + p.machine }

// compilePaper compiles every Fig. 6 point — MUSS-TI on its EML device (on
// the grid too at the small scale), Murali, Dai and MQT on the scale's grid
// — one after another through Compiler.Compile, for as many rounds as the
// budget allows. The seed fixes the order of the points within a round.
func compilePaper(r *run) error {
	ctx := context.Background()
	pts, err := paperSetup(r)
	if err != nil {
		return err
	}
	r.setupDone()

	for i := range pts {
		if pts[i].k, err = countGates(pts[i].c); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x9e3779b97f4a7c15))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })

	first := make([]*mussti.Result, len(pts))
	var walls, allocs, latMeans []float64
	layerOf := func(p *paperPoint) string {
		if p.compiler == "mussti" {
			return "core.sabre_ms." + p.scale
		}
		return "baseline." + p.compiler + "_ms"
	}
	rs, err := r.rounds(func(round int, traced bool) error {
		got := make([]*mussti.Result, len(pts))
		var latSum float64
		a0 := allocMB()
		t0 := time.Now()
		for i := range pts {
			p := &pts[i]
			s := r.tr.begin(layerOf(p), -1, 0, round)
			t := time.Now()
			res, err := p.comp.Compile(ctx, p.c, p.target, nil)
			latSum += ms(time.Since(t))
			r.tr.end(s)
			if err != nil {
				return fmt.Errorf("%s: %w", p.id(), err)
			}
			got[i] = res
		}
		walls = append(walls, time.Since(t0).Seconds())
		allocs = append(allocs, allocMB()-a0)
		latMeans = append(latMeans, latSum/float64(len(pts)))
		if traced {
			if err := paperProbes(ctx, r, pts, round); err != nil {
				return err
			}
		}
		for i, res := range got {
			if err := checkResult(pts[i].k, res); err != nil {
				r.fail("%s round %d: %v", pts[i].id(), round, err)
			}
			if round == 0 {
				first[i] = res
			} else if res.Metrics != first[i].Metrics || res.Stats != first[i].Stats {
				r.fail("%s round %d: metrics differ from round 0", pts[i].id(), round)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rss := peakRSSMB()

	failedPts, traceOps, err := paperVerify(ctx, r, pts, first)
	if err != nil {
		return err
	}
	r.res.Attempted = int64(rs.n * len(pts))
	r.res.Failed = int64(rs.n * failedPts)

	if !r.traced {
		var shuttles int
		var makespanUS, negLog10F float64
		for _, res := range first {
			shuttles += res.Metrics.Shuttles
			makespanUS += res.Metrics.MakespanUS
			negLog10F -= res.Metrics.Fidelity.Log10()
		}
		setEndToEnd(r, endToEnd{
			roundS: median(walls), shuttles: shuttles, makespanS: makespanUS / 1e6, negLog10F: negLog10F,
			allocMB: median(allocs), rssMB: rss, meanMS: median(latMeans),
		})
		return nil
	}

	setLayerDefaults(r)
	var st mussti.SchedStats
	for i, res := range first {
		if pts[i].compiler == "mussti" {
			st.Routed += res.Stats.Routed
			st.Evictions += res.Stats.Evictions
			st.SwapsInserted += res.Stats.SwapsInserted
			st.ExecutableFast += res.Stats.ExecutableFast
		}
	}
	r.set("core.routed", "count", float64(st.Routed))
	r.set("core.evictions", "count", float64(st.Evictions))
	r.set("core.swaps_inserted", "count", float64(st.SwapsInserted))
	r.set("core.fast_path", "count", float64(st.ExecutableFast))
	r.set("sim.trace_ops", "count", float64(traceOps))
	r.set("bench.generate_ms", "ms", r.tr.layerMS("bench.generate", []int{-1}))
	r.set("arch.build_ms", "ms", r.tr.layerMS("arch.build", []int{-1}))
	r.set("dag.build_ms", "ms", r.tr.layerMS("dag.build", rs.traced))
	for _, sc := range paperScales {
		sabre := r.tr.perRound("core.sabre_ms."+sc.name, rs.traced)
		triv := r.tr.perRound("core.trivial."+sc.name, rs.traced)
		probe := make([]float64, len(sabre))
		for i := range sabre {
			probe[i] = sabre[i] - triv[i]
		}
		r.set("core.sabre_ms."+sc.name, "ms", median(sabre))
		r.set("core.trivial_ms."+sc.name, "ms", median(triv))
		r.set("core.probe_ms."+sc.name, "ms", median(probe))
	}
	for _, b := range []string{"murali", "dai", "mqt"} {
		r.set("baseline."+b+"_ms", "ms", r.tr.layerMS("baseline."+b+"_ms", rs.traced))
	}
	r.set("trace.overhead_pct", "%", overheadPct(walls, rs))
	return nil
}

// paperSetup generates the Fig. 6 circuits and builds their machines.
func paperSetup(r *run) ([]paperPoint, error) {
	compilers := map[string]mussti.Compiler{}
	for _, name := range []string{"mussti", "murali", "dai", "mqt"} {
		c, err := mussti.LookupCompiler(name)
		if err != nil {
			return nil, err
		}
		compilers[name] = c
	}
	var pts []paperPoint
	for _, sc := range paperScales {
		s := r.tr.begin("arch.build", -1, 0, -1)
		grid, err := mussti.NewGrid(sc.rows, sc.cols, sc.capy)
		r.tr.end(s)
		if err != nil {
			return nil, err
		}
		for _, app := range sc.apps {
			s := r.tr.begin("bench.generate", -1, 0, -1)
			c, err := mussti.BenchmarkByName(app)
			r.tr.end(s)
			if err != nil {
				return nil, err
			}
			s = r.tr.begin("arch.build", -1, 0, -1)
			dev, err := mussti.NewDeviceErr(mussti.DeviceConfigFor(c.NumQubits))
			r.tr.end(s)
			if err != nil {
				return nil, err
			}
			add := func(compiler, machine string, t mussti.Target) {
				pts = append(pts, paperPoint{app: app, compiler: compiler, scale: sc.name, machine: machine,
					c: c, comp: compilers[compiler], target: t})
			}
			if sc.name == "small" {
				add("mussti", "grid", grid)
			}
			add("mussti", "eml", dev)
			for _, b := range []string{"murali", "dai", "mqt"} {
				add(b, "grid", grid)
			}
		}
	}
	return pts, nil
}

// paperProbes makes the traced round's extra calls: one DAG build per point
// and, per MUSS-TI point, a compile with trivial mapping and no SWAP
// insertion, whose gap to the default compile is the probe passes' cost.
func paperProbes(ctx context.Context, r *run, pts []paperPoint, round int) error {
	trivial := mussti.NewCompileConfig(mussti.WithMapping(mussti.MappingTrivial), mussti.WithSwapInsertion(false))
	for i := range pts {
		p := &pts[i]
		s := r.tr.begin("dag.build", -1, 0, round)
		dag.Build(p.c)
		r.tr.end(s)
		if p.compiler != "mussti" {
			continue
		}
		s = r.tr.begin("core.trivial."+p.scale, -1, 0, round)
		res, err := p.comp.Compile(ctx, p.c, p.target, trivial)
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("%s trivial: %w", p.id(), err)
		}
		if err := checkResult(p.k, res); err != nil {
			r.fail("%s trivial: %v", p.id(), err)
		}
	}
	return nil
}

// paperVerify recompiles every point with an op-level trace, outside the
// timed rounds. The traced compile must reproduce the untraced metrics, and
// every MUSS-TI schedule must pass the independent verifier; a known fault
// counts the point as failed. Baseline traces carry no initial mapping
// (see CHANGES.md), so they are checked by gate conservation and the
// makespan bound only. It returns the failed points and the total trace
// length.
func paperVerify(ctx context.Context, r *run, pts []paperPoint, first []*mussti.Result) (failed, ops int, err error) {
	for i := range pts {
		p := &pts[i]
		cfg := mussti.NewCompileConfig(mussti.WithTrace())
		if p.compiler != "mussti" {
			cfg = &mussti.CompileConfig{Trace: true}
		}
		res, err := p.comp.Compile(ctx, p.c, p.target, cfg)
		if err != nil {
			return 0, 0, fmt.Errorf("%s traced: %w", p.id(), err)
		}
		ops += len(res.Trace)
		if res.Metrics != first[i].Metrics || res.Stats != first[i].Stats {
			r.fail("%s: traced compile metrics differ from untraced", p.id())
		}
		if p.compiler != "mussti" {
			continue
		}
		dev, ok := p.target.(*mussti.Device)
		if !ok {
			dev = p.target.(*mussti.Grid).Device()
		}
		verr := mussti.VerifySchedule(p.c, dev, res.InitialMapping, res.Trace)
		switch {
		case verr != nil && isKnownVerifyFault(p.id(), verr):
			failed++
		case verr != nil:
			r.fail("%s: %v", p.id(), verr)
		}
	}
	return failed, ops, nil
}
