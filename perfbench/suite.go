package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mussti"
	"mussti/internal/circuit/bench"
	"mussti/internal/eval"
)

// suiteRunner runs the whole evaluation — every experiment of
// ExperimentList, extensions included — through one fresh Runner per round,
// sized to the CPU count with the memo and batching on, each experiment on
// its own goroutine as cmd/experiments runs them in all mode. The suite is
// fixed, so the seed changes nothing: the order in which the experiments
// start moves the round time, and it stays the CLI's order.
func suiteRunner(r *run) error {
	ctx := context.Background()
	exps := mussti.ExperimentList()
	plans := make([][]mussti.EvalJob, len(exps))
	for i, e := range exps {
		if e.Plan == nil {
			continue
		}
		p, err := e.Plan()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		plans[i] = p.Jobs
	}
	// Set-up generates every circuit the suite compiles, so no round pays
	// for generation (the generator memoizes per process).
	counts := map[string]gateCounts{}
	var specs []mussti.CompileSpec
	for _, jobs := range plans {
		for _, j := range jobs {
			spec, err := j.Resolve()
			if err != nil {
				return err
			}
			specs = append(specs, spec)
			if _, ok := counts[spec.App]; ok {
				continue
			}
			s := r.tr.begin("bench.generate", -1, 0, -1)
			_, err = bench.ByName(spec.App)
			r.tr.end(s)
			if err != nil {
				return err
			}
			counts[spec.App] = gateCounts{}
		}
	}
	r.setupDone()

	for app := range counts {
		k, err := countGates(bench.MustByName(app))
		if err != nil {
			return err
		}
		counts[app] = k
	}
	workers := runtime.NumCPU()

	var first [][]mussti.Measurement
	var walls, allocs, latMeans, jobWalls, hits, misses []float64
	rs, err := r.rounds(func(round int, traced bool) error {
		runner := mussti.NewRunner(workers)
		var mu sync.Mutex
		var jobWall float64
		var jobs int
		rsp := r.tr.begin("round", -1, 0, round)
		runner.SetJobHook(func(o eval.JobOutcome) {
			r.tr.add("eval.job", rsp, round, o.Wall)
			mu.Lock()
			jobs++
			jobWall += ms(o.Wall)
			mu.Unlock()
		})
		got := make([][]mussti.Measurement, len(exps))
		errs := make([]error, len(exps))
		a0 := allocMB()
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := range exps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := r.tr.begin("eval.experiment", rsp, 0, round)
				_, got[i], errs[i] = exps[i].CollectContext(ctx, runner)
				r.tr.end(s)
			}()
		}
		wg.Wait()
		walls = append(walls, time.Since(t0).Seconds())
		allocs = append(allocs, allocMB()-a0)
		mu.Lock()
		latMeans = append(latMeans, jobWall/float64(jobs))
		mu.Unlock()
		r.tr.end(rsp)
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("%s: %w", exps[i].ID, err)
			}
		}
		h, m := runner.CacheStats()
		hits = append(hits, float64(h))
		misses = append(misses, float64(m))
		jobWalls = append(jobWalls, jobWall)
		if traced {
			if err := suiteArchProbe(r, specs, round); err != nil {
				return err
			}
		}
		if round == 0 {
			first = got
			return nil
		}
		for i := range got {
			if !sameMeasurements(got[i], first[i]) {
				r.fail("%s round %d: measurements differ from round 0", exps[i].ID, round)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rss := peakRSSMB()

	// Reference: the same experiments on a sequential, uncached, unbatched
	// (nil) Runner, one experiment per CPU at a time. Its compile times also
	// give the suite's ideal parallel time for eval.overhead_s.
	refs := make([][]mussti.Measurement, len(exps))
	refErrs := make([]error, len(exps))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				_, refs[i], refErrs[i] = exps[i].CollectContext(ctx, nil)
			}
		}()
	}
	for i := range exps {
		next <- i
	}
	close(next)
	wg.Wait()
	perRound := 0
	var uniqueCompileS float64
	seen := map[string]bool{}
	for i, e := range exps {
		perRound += len(first[i])
		if refErrs[i] != nil {
			return fmt.Errorf("%s reference: %w", e.ID, refErrs[i])
		}
		if !sameMeasurements(first[i], refs[i]) {
			r.fail("%s: measurements differ from a sequential, uncached, unbatched run", e.ID)
		}
		for j, m := range refs[i] {
			if err := checkMeasurement(counts[m.App], m); err != nil {
				r.fail("%s %s/%s: %v", e.ID, m.App, m.Compiler, err)
			}
			if j >= len(plans[i]) {
				continue
			}
			spec, _ := plans[i][j].Resolve()
			if key, ok := spec.CacheKey(); ok {
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			uniqueCompileS += m.CompileTime.Seconds()
		}
	}
	r.res.Attempted = int64(rs.n * perRound)

	if !r.traced {
		var shuttles int
		var makespanUS, negLog10F float64
		for _, ms := range first {
			for _, m := range ms {
				shuttles += m.Shuttles
				makespanUS += m.TimeUS
				negLog10F -= m.Log10F
			}
		}
		setEndToEnd(r, endToEnd{
			roundS: median(walls), shuttles: shuttles, makespanS: makespanUS / 1e6, negLog10F: negLog10F,
			allocMB: median(allocs), rssMB: rss, meanMS: median(latMeans),
		})
		return nil
	}
	setLayerDefaults(r)
	r.set("bench.generate_ms", "ms", r.tr.layerMS("bench.generate", []int{-1}))
	r.set("arch.build_ms", "ms", r.tr.layerMS("arch.build", rs.traced))
	r.set("eval.memo_hits", "count", median(hits))
	r.set("eval.memo_misses", "count", median(misses))
	r.set("eval.job_wall_ms", "ms", median(jobWalls))
	r.set("eval.overhead_s", "s", median(walls)-uniqueCompileS/float64(workers))
	r.set("trace.overhead_pct", "%", overheadPct(walls, rs))
	return nil
}

// suiteArchProbe builds, once per traced round, every EML-QCCD device the
// suite's points compile onto — the construction the Runner repeats inside
// each such job (the capacity and optical-zone sweeps vary it).
func suiteArchProbe(r *run, specs []mussti.CompileSpec, round int) error {
	for _, spec := range specs {
		if spec.Grid != nil {
			continue
		}
		cfg := spec.Arch
		if cfg == (mussti.DeviceConfig{}) {
			cfg = mussti.DeviceConfigFor(bench.MustByName(spec.App).NumQubits)
		}
		s := r.tr.begin("arch.build", -1, 0, round)
		_, err := mussti.NewDeviceErr(cfg)
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.App, err)
		}
	}
	return nil
}

// sameMeasurements compares two measurement lists entry by entry, ignoring
// wall-clock compile times.
func sameMeasurements(a, b []mussti.Measurement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameMeasurement(a[i], b[i]) {
			return false
		}
	}
	return true
}
