// Command lebench regenerates the paper's evaluation: every experiment that
// produces cells is plan → Orchestrator.RunSweep → artifact → report, and
// stdout is the markdown `lereport` renders from the -json artifact.
//
// Usage:
//
//	lebench -exp table1            # Table 1 rows (T1-a..d)
//	lebench -exp knowledge         # X4 presumed-n ablation
//	lebench -exp faults            # F1-F5 fault-injection ladders
//	lebench -exp sweeps            # table1 + knowledge + faults: the gate matrix
//	lebench -exp epochs            # E1-E3 repeated-election scenarios
//	lebench -exp scaling           # n=10^3..10^5 ramps, one wall clock per cell
//	lebench -exp figures           # Figures 1-2 pumping-wheel series (no cells)
//	lebench -exp ablations         # X1-X3 series (no cells) + knowledge
//	lebench -exp all -quick        # sweeps + figures + ablations
//	lebench -exp sweeps -quick -json BENCH_harness.json       # CI's gate sweep
//	lebench -exp sweeps -quick -procs 2 -json BENCH_dist.json # two worker processes
//
// README "Running sweeps" walks through the experiments, -workers,
// -procs/-cells and -profile; docs/ARCHITECTURE.md "Observability" covers
// -round-profile, -trace-out, -metrics-out, -debug-addr and -cpuprofile.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"anonlead/internal/harness"
	"anonlead/internal/obs"
	"anonlead/internal/report"
	"anonlead/internal/spectral"
	"anonlead/internal/stats"
	"anonlead/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lebench:", err)
		os.Exit(1)
	}
}

// session carries the flag configuration plus the accumulated sweep
// results destined for the report and the JSON artifact.
type session struct {
	quick     bool
	trials    int
	seed      uint64
	profile   spectral.Mode
	orch      harness.Orchestrator
	jsonPath  string
	strip     bool
	roundProf bool

	specs []harness.CellSpec
	cells []harness.Cell
	// plan is the coverage header of a -cells partial run (nil for full
	// sweeps).
	plan  *harness.ArtifactPlan
	start time.Time
}

// experiment is one -exp value: the series it prints as it goes, then the
// plan whose cells it sweeps. Either may be absent. A series may sweep
// cells of its own (scaling does, to time them one by one).
type experiment struct {
	series []func(*session) error
	plan   func(quick bool, trials int, seed uint64) harness.Plan
}

var experiments = map[string]experiment{
	"table1":    {plan: harness.Table1Plan},
	"knowledge": {plan: harness.KnowledgePlan},
	"faults":    {plan: harness.FaultsPlan},
	"sweeps":    {plan: harness.SweepsPlan},
	"epochs":    {plan: harness.EpochsPlan},
	"scaling":   {series: []func(*session) error{scaling}},
	"figures":   {series: []func(*session) error{figures}},
	"ablations": {series: []func(*session) error{ablations}, plan: harness.KnowledgePlan},
	"all":       {series: []func(*session) error{figures, ablations}, plan: harness.SweepsPlan},
}

// sweep runs a batch of cell specs through the orchestrator and records
// the results for the artifact. The -profile regime is applied here, so one
// flag threads the canonical mode through every experiment's TrialOpts and
// into the artifact cell descriptors.
func (s *session) sweep(specs []harness.CellSpec) error {
	for i := range specs {
		specs[i].Opts.ProfileMode = s.profile
		if s.roundProf {
			specs[i].Opts.RoundProfile = true
		}
	}
	cells, err := s.orch.RunSweep(specs)
	if err != nil {
		return err
	}
	s.specs = append(s.specs, specs...)
	s.cells = append(s.cells, cells...)
	return nil
}

func run() error {
	var (
		exp        = flag.String("exp", "all", "experiment: table1, figures, ablations, knowledge, faults, sweeps (table1+knowledge+faults), scaling, epochs, all (sweeps+figures+ablations)")
		quick      = flag.Bool("quick", false, "reduced sweeps for a fast pass")
		trials     = flag.Int("trials", 0, "trials per cell (0 = experiment default)")
		seed       = flag.Uint64("seed", 1, "root random seed")
		workers    = flag.Int("workers", 0, "worker pool size for sweep cells and trials (0 = GOMAXPROCS, 1 = one goroutine; output does not depend on it)")
		procs      = flag.Int("procs", 0, "run -exp sweeps across this many worker processes (each this binary with -cells) and merge their partial artifacts into -json")
		jsonPath   = flag.String("json", "", "write the machine-readable sweep artifact (e.g. BENCH_harness.json)")
		profile    = flag.String("profile", "auto", "spectral profile regime for sweep cells: exact, estimate, or auto (exact up to n=256, estimate above)")
		cells      = flag.String("cells", "", "run only these -exp sweeps plan indices (e.g. \"0:40\" or \"3,7:12\") and write a partial artifact — what a -procs worker process is given")
		strip      = flag.Bool("strip-timings", false, "zero the artifact's wall-clock fields so deterministic sweeps compare with cmp")
		roundProf  = flag.Bool("round-profile", false, "attach deterministic per-round message/halt histograms to every sweep cell (schema-v5 round_profile section)")
		traceOut   = flag.String("trace-out", "", "write the run's phase spans as Chrome trace-event JSON (open in chrome://tracing or Perfetto)")
		metricsOut = flag.String("metrics-out", "", "write the metrics-registry snapshot as JSON (render with lereport -phases)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/pprof/* and (with -procs) the /debug/progress live sweep view on this address while the run executes (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU pprof profile of the run")
	)
	flag.Parse()

	mode, err := spectral.ParseMode(*profile)
	if err != nil {
		return err
	}
	if *traceOut != "" || *metricsOut != "" || *debugAddr != "" {
		obs.Enable()
	}
	var coord *sweep.Coordinator
	if *procs != 0 {
		if err := checkProcs(*procs, *exp, *jsonPath); err != nil {
			return err
		}
		coord = sweep.ForSweeps(sweep.Config{
			Workers: *procs, Quick: *quick, Trials: *trials, Seed: *seed, Profile: mode, Log: os.Stderr,
		})
	}
	if *debugAddr != "" {
		var progress func() any
		if coord != nil {
			progress = func() any { return coord.Progress() }
		}
		addr, err := obs.Serve(*debugAddr, progress)
		if err != nil {
			return fmt.Errorf("debug endpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "lebench: debug endpoint on http://%s\n", addr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	s := &session{
		quick:     *quick,
		trials:    *trials,
		seed:      *seed,
		profile:   mode,
		orch:      harness.Orchestrator{Workers: *workers},
		jsonPath:  *jsonPath,
		strip:     *strip,
		roundProf: *roundProf,
		start:     time.Now(),
	}
	defer writeTelemetry(*traceOut, *metricsOut)

	if coord != nil {
		art, err := coord.Run(context.Background())
		if err != nil {
			return err
		}
		return emit(art, *jsonPath)
	}
	if *cells != "" {
		// Worker mode: the selector is resolved against the sweeps plan and
		// the partial artifact is the only output.
		if *exp != "sweeps" || *jsonPath == "" {
			return fmt.Errorf("-cells selects from the -exp sweeps plan and writes a partial artifact: pass -exp sweeps -json FILE (got -exp %q -json %q)", *exp, *jsonPath)
		}
		if err := runSelected(s, *cells); err != nil {
			return err
		}
		return s.finish(*exp)
	}

	e, ok := experiments[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	for _, f := range e.series {
		if err := f(s); err != nil {
			return err
		}
	}
	if e.plan != nil {
		if err := s.sweep(e.plan(s.quick, s.trials, s.seed).Specs()); err != nil {
			return err
		}
	}
	return s.finish(*exp)
}

// writeTelemetry flushes the run's telemetry side channels (a no-op when
// the flags are empty). Failures are warnings: telemetry must never turn
// a finished sweep into a failed run.
func writeTelemetry(traceOut, metricsOut string) {
	if traceOut != "" {
		if err := obs.WriteChromeTraceFile(traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "lebench: trace-out:", err)
		} else {
			fmt.Printf("wrote %s (%d spans)\n", traceOut, len(obs.SpanEvents()))
		}
	}
	if metricsOut != "" {
		if err := obs.WriteSnapshotFile(metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "lebench: metrics-out:", err)
		} else {
			fmt.Printf("wrote %s\n", metricsOut)
		}
	}
}

// finish assembles the session's cells into the artifact and emits it.
func (s *session) finish(exp string) error {
	if s.jsonPath != "" && len(s.cells) == 0 {
		fmt.Fprintf(os.Stderr, "lebench: note: -exp %s swept no cells, so the artifact has none (every experiment but figures does)\n", exp)
	}
	artifact := harness.NewArtifact(s.orch, s.specs, s.cells, time.Since(s.start))
	artifact.Plan = s.plan
	if s.strip {
		artifact = artifact.StripTimings()
	}
	return emit(artifact, s.jsonPath)
}

// emit prints the artifact's report — the markdown lereport renders from
// the file, since the report reads no wall-clock field — and writes the
// file when -json names one. A -cells partial is a worker's output for the
// coordinator to merge, not something to read: it prints no report.
func emit(a harness.Artifact, jsonPath string) error {
	if len(a.Cells) > 0 && a.Plan == nil {
		fmt.Print(report.New(a, report.Options{}).Markdown())
	}
	if jsonPath == "" {
		return nil
	}
	if err := a.WriteFile(jsonPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells)\n", jsonPath, len(a.Cells))
	return nil
}

// checkProcs validates the -procs combination. Worker processes are given
// the plan parameters and a -cells range, nothing else, so flags that
// would change what they run are refused rather than silently dropped.
func checkProcs(procs int, exp, jsonPath string) error {
	if procs < 0 || exp != "sweeps" || jsonPath == "" {
		return fmt.Errorf("-procs N (N >= 1) shards the -exp sweeps plan and writes the merged artifact: pass -exp sweeps -json FILE (got -procs %d -exp %q -json %q)", procs, exp, jsonPath)
	}
	var clash error
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "cells", "workers", "round-profile":
			clash = fmt.Errorf("-%s does not combine with -procs (worker processes get their own -cells range and size their own pool)", f.Name)
		}
	})
	return clash
}

// runSelected is the distributed-sweep worker path: resolve the -cells
// selector against the canonical sweeps plan, run exactly the selected
// cells, and record the covered plan indices for the artifact's plan
// header.
func runSelected(s *session, selector string) error {
	sel, err := harness.ParseCellSelector(selector)
	if err != nil {
		return fmt.Errorf("-cells: %w", err)
	}
	plan := harness.SweepsPlan(s.quick, s.trials, s.seed)
	idxs, err := sel.Indices(plan.Len())
	if err != nil {
		return fmt.Errorf("-cells: %w", err)
	}
	all := plan.Specs()
	specs := make([]harness.CellSpec, len(idxs))
	for j, idx := range idxs {
		specs[j] = all[idx]
	}
	if err := s.sweep(specs); err != nil {
		return err
	}
	s.plan = &harness.ArtifactPlan{Total: plan.Len(), Indices: idxs}
	fmt.Printf("ran %d of %d planned sweep cells (-cells %s)\n", len(idxs), plan.Len(), sel)
	return nil
}

func pickTrials(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}

// figures regenerates the Figures 1-2 pumping-wheel series.
func figures(s *session) error {
	trials := pickTrials(s.trials, 20)
	witnesses := []int{1, 2, 4, 8}
	presumed := 12
	if s.quick {
		trials = pickTrials(s.trials, 8)
		witnesses = []int{1, 2, 4}
	}
	points, err := harness.SplitBrainExperiment(presumed, witnesses, trials, s.seed)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderSplitBrain(presumed, points))
	return nil
}

// ablations regenerates the X1-X3 design ablations (X4, the knowledge
// ablation, is a plan like any other and comes out of the report).
func ablations(s *session) error {
	trials := pickTrials(s.trials, 10)
	if s.quick {
		trials = pickTrials(s.trials, 4)
	}

	w := harness.Workload{Family: "expander", N: 128}
	if s.quick {
		w.N = 64
	}
	xs := []int{1, 2, 4, 8, 16, 32}
	points, prof, err := harness.AblationCautious(w, xs, trials, s.seed)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderAblationCautious(w, prof, points))

	factors := []float64{0.25, 0.5, 1, 2, 4}
	wpoints, err := harness.AblationWalks(s.orch, w, factors, trials, s.seed)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderAblationWalks(w, wpoints))

	dw := harness.Workload{Family: "cycle", N: 16}
	dpoints, err := harness.AblationDiffusion(dw, 0.5, 64, s.seed)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderAblationDiffusion(dw, dpoints))
	return nil
}

// scaling runs the estimate-regime size ramps (harness.ScalingPlan) one
// cell at a time on one worker, because the wall clock per cell is the
// measurement and a pool would smear prepare and trial costs across cells.
// It prints only what the report never consults: seconds per cell, the
// wall-time exponent of each ramp, and the profile-cache hit rate — the
// cache is what makes the second run of a repeated cell collapse to trial
// cost (the -quick smoke demonstrates exactly that with one 100k-node cell
// run twice). The cells go to the report and the artifact like any others.
func scaling(s *session) error {
	s.orch.Workers = 1 // the artifact header says so
	hits0, misses0 := harness.ProfileCacheStats()
	var all []float64
	for _, sec := range harness.ScalingPlan(s.quick, s.trials, s.seed).Sections {
		fmt.Println(sec.Title)
		var ns, secs []float64
		for _, spec := range sec.Specs {
			start := time.Now()
			if err := s.sweep([]harness.CellSpec{spec}); err != nil {
				return err
			}
			d := time.Since(start).Seconds()
			fmt.Printf("  %s n=%d: %.2fs\n", spec.Workload.Family, spec.Workload.N, d)
			ns, secs = append(ns, float64(spec.Workload.N)), append(secs, d)
		}
		if slope, r2 := stats.LogLogSlope(ns, secs); r2 > 0 {
			fmt.Printf("  wall time ~ n^%.2f (R²=%.3f)\n", slope, r2)
		}
		all = append(all, secs...)
	}
	hits, misses := harness.ProfileCacheStats()
	fmt.Printf("profile cache: %d hits, %d misses this run\n", hits-hits0, misses-misses0)
	if s.quick && len(all) == 2 && all[1] > 0 {
		fmt.Printf("cache speedup: cell %.2fs -> %.2fs (%.1fx)\n", all[0], all[1], all[0]/all[1])
	}
	fmt.Println()
	return nil
}
