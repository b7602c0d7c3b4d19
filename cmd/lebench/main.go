// Command lebench regenerates the paper's evaluation artifacts: every
// Table 1 cell (measured on the CONGEST simulator and compared to the
// paper's complexity formulas), the Figures 1-2 pumping-wheel
// impossibility series, and the design ablations X1-X4.
//
// Usage:
//
//	lebench -exp table1            # all Table 1 rows
//	lebench -exp figures           # pumping-wheel split-brain series
//	lebench -exp ablations         # X1-X4 design ablations
//	lebench -exp knowledge         # X4 knowledge ablation only
//	lebench -exp faults            # F1-F5 fault-injection resilience curves
//	lebench -exp sweeps            # table1 + knowledge + faults (the artifact cells)
//	lebench -exp scaling           # n=10^3..10^5 ramps under the estimate regime
//	lebench -exp epochs            # E1-E3 repeated-election epoch scenarios
//	lebench -exp all -quick        # everything, reduced sweep
//	lebench -exp table1 -workers 1 -json BENCH_harness.json   # one goroutine
//	lebench -exp sweeps -quick -procs 2 -json BENCH_dist.json # two worker processes
//	lebench -exp scaling -quick -json BENCH_scaling.json   # CI smoke + cache demo
//
// -exp faults runs the adversary subsystem's resilience sweeps
// (internal/adversary): fault rate × protocol × graph family for message
// loss, crash-stop schedules, link churn, and delivery jitter, each as a
// degradation curve anchored at the fault-free cell. Fault-injected cells
// carry their adversary descriptor in the artifact, so benchdiff aligns
// and gates them like any other cell.
//
// -exp sweeps runs exactly the sweep-based experiments (Table 1, the X4
// knowledge ablation, and the fault-injection curves) — every cell that
// lands in the JSON artifact — and is what CI's bench-gate job executes
// before diffing the artifact against testdata/BENCH_baseline.json with
// cmd/benchdiff.
//
// -exp epochs runs the repeated-election scenarios (anonlead.RunEpochs
// through the harness): seed-chained epochs of elect → lead → leader
// crashes or revokes → re-elect on one persistent topology, swept over an
// adversary ladder that compares a static crash schedule against the
// traffic-adaptive adversary targeting the busiest node. Scenario cells
// carry their epoch descriptor and amortized per-epoch stats in the
// schema-v6 artifact (conventionally archived as BENCH_epochs.json, a
// separate artifact from the -exp sweeps matrix).
//
// -exp scaling is the estimate-regime counterpart of Table 1: size ramps
// to n = 10^5, where profiles come from the streaming spectral estimators
// instead of dense matrices. Cells run sequentially with per-cell wall
// timing and the rendering reports empirical scaling exponents plus
// profile-cache hit rates; -quick shrinks the matrix to one 100k-node
// expander cell run twice (the CI smoke, demonstrating the cache hit).
//
// -profile pins the spectral profile regime for every sweep cell: exact
// (dense matrices, the committed baselines), estimate (streaming, scales
// past dense sizes), or auto (the default: exact up to n = 256, estimate
// above). The resolved regime is part of each cell's identity in the
// artifact, so a regime switch diffs as added/removed cells.
//
// The sweep-based experiments (table1, knowledge, faults, epochs) always
// fan their cells and per-cell trials out over a bounded worker pool
// (harness.Orchestrator, the one cell runner): -workers sizes it (0 =
// GOMAXPROCS, 1 = a single goroutine). Per-trial seeds are split
// deterministically from -seed, so the output does not depend on the pool
// size. The figures series and the X1-X3 ablations are bespoke trial loops
// on the calling goroutine. -json records every sweep cell executed during
// the run in a machine-readable artifact for cross-PR perf trajectory
// tracking (experiments that run no sweeps contribute no cells).
//
// -procs N runs -exp sweeps across N worker processes: the coordinator
// (internal/sweep) cuts the plan into N contiguous index ranges, re-execs
// this binary once per range with -cells, reruns a crashed worker once, and
// merges the partial artifacts with harness.MergeArtifacts into -json.
// Because per-trial seeds are pure functions of the root seed and the
// cell, the merged artifact is byte-identical to a single-process
// -strip-timings sweep (what `make sweep-dist` checks with cmp). No tables
// are rendered; progress goes to stderr.
//
// -cells is the worker side of that: it selects a subset of the -exp
// sweeps cell matrix by plan index (the order harness.SweepsPlan fixes,
// e.g. "0:40" or "3,7:12"), runs exactly those cells, and writes a partial
// artifact whose plan header records the covered indices. -strip-timings
// zeroes the artifact's wall-clock fields so two deterministic sweeps can
// be compared with cmp.
//
// Observability (see docs/ARCHITECTURE.md "Observability"): -round-profile
// attaches deterministic per-round message/halt histograms to every sweep
// cell (the schema-v5 round_profile artifact section); -trace-out FILE
// writes the run's phase spans as Chrome trace-event JSON for
// chrome://tracing or Perfetto; -metrics-out FILE dumps the metrics
// registry as JSON (lereport -phases renders it as a phase-breakdown
// table); -debug-addr ADDR serves /metrics and /debug/pprof/* while the
// run executes, plus with -procs the coordinator's per-worker
// /debug/progress; -cpuprofile FILE records a CPU pprof profile. None of
// these perturb measurements: spans and metrics are wall-clock side
// channels, and round profiles are integer-exact and
// scheduler-independent.
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
	"anonlead/internal/spectral"
	"anonlead/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lebench:", err)
		os.Exit(1)
	}
}

// session carries the flag configuration plus the accumulated sweep
// results destined for the JSON artifact.
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

// sweep runs a batch of cell specs through the orchestrator and records
// the results for the artifact. The -profile regime is applied here, so one
// flag threads the canonical mode through every experiment's TrialOpts and
// into the artifact cell descriptors.
func (s *session) sweep(specs []harness.CellSpec) ([]harness.Cell, error) {
	for i := range specs {
		specs[i].Opts.ProfileMode = s.profile
		if s.roundProf {
			specs[i].Opts.RoundProfile = true
		}
	}
	cells, err := s.orch.RunSweep(specs)
	if err != nil {
		return nil, err
	}
	s.specs = append(s.specs, specs...)
	s.cells = append(s.cells, cells...)
	return cells, nil
}

func run() error {
	var (
		exp        = flag.String("exp", "all", "experiment: table1, figures, ablations, knowledge, faults, sweeps, scaling, epochs, all")
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
		if err := art.WriteFile(*jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells, merged from %d worker processes)\n", *jsonPath, len(art.Cells), *procs)
		return nil
	}
	if *cells != "" {
		// Worker mode: the cell selector is resolved against the sweeps
		// plan, so it only makes sense for the artifact matrix.
		if *exp != "sweeps" {
			return fmt.Errorf("-cells selects from the -exp sweeps plan; pass -exp sweeps (got %q)", *exp)
		}
		if err := runSelected(s, *cells); err != nil {
			return err
		}
		return writeArtifact(s, *exp)
	}

	switch *exp {
	case "table1":
		err = table1(s)
	case "figures":
		err = figures(s)
	case "ablations":
		err = ablations(s)
	case "knowledge":
		err = knowledge(s)
	case "faults":
		err = faults(s)
	case "scaling":
		err = scaling(s)
	case "epochs":
		err = epochs(s)
	case "sweeps":
		for _, f := range []func(*session) error{table1, knowledge, faults} {
			if err = f(s); err != nil {
				break
			}
		}
	case "all":
		for _, f := range []func(*session) error{table1, figures, ablations, faults} {
			if err = f(s); err != nil {
				break
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		return err
	}
	return writeArtifact(s, *exp)
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

// writeArtifact emits the session's accumulated sweep cells as the JSON
// artifact (a no-op without -json).
func writeArtifact(s *session, exp string) error {
	if s.jsonPath == "" {
		return nil
	}
	if len(s.cells) == 0 {
		fmt.Fprintf(os.Stderr, "lebench: note: -exp %s ran no sweeps, so the artifact has no cells (table1 and knowledge populate it)\n", exp)
	}
	artifact := harness.NewArtifact(s.orch, s.specs, s.cells, time.Since(s.start))
	artifact.Plan = s.plan
	if s.strip {
		artifact = artifact.StripTimings()
	}
	if err := artifact.WriteFile(s.jsonPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells)\n", s.jsonPath, len(s.cells))
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
// cells (no rendering — the coordinator merges and reports), and record
// the covered plan indices for the artifact's plan header.
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
	if _, err := s.sweep(specs); err != nil {
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

// table1 regenerates the Table 1 rows: T1-a (IRE), T1-b (Gilbert-class),
// T1-c (flooding class), T1-d (revocable), plus the diameter-2
// clique-of-cliques cells motivated by the Chatterjee et al. chasm. The
// matrix itself lives in harness.Table1Plan — the shared planner the
// distributed sweep shards by index — so the rendered tables and a
// worker's -cells subset can never drift apart. All sections are expanded
// into one spec list so the pool overlaps every cell.
func table1(s *session) error {
	sections := harness.Table1Plan(s.quick, s.trials, s.seed)
	var specs []harness.CellSpec
	bounds := make([][2]int, len(sections))
	for i, sec := range sections {
		lo := len(specs)
		specs = append(specs, sec.Specs...)
		bounds[i] = [2]int{lo, len(specs)}
	}
	cells, err := s.sweep(specs)
	if err != nil {
		return err
	}
	for i, sec := range sections {
		rows := harness.RowsFromCells(cells[bounds[i][0]:bounds[i][1]])
		fmt.Println(harness.RenderTable1(sec.Title, rows))
	}
	return nil
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

// ablations regenerates the X1-X4 design ablations.
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
	wpoints, prof2, err := harness.AblationWalks(w, factors, trials, s.seed)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderAblationWalks(w, prof2, wpoints))

	dw := harness.Workload{Family: "cycle", N: 16}
	dpoints, err := harness.AblationDiffusion(dw, 0.5, 64, s.seed)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderAblationDiffusion(dw, dpoints))

	return knowledge(s)
}

// faults regenerates the F1-F5 fault-injection resilience curves: each
// sweep perturbs one protocol on one family with an escalating adversary
// ladder (message loss, crash-stop, link churn, delivery jitter, and the
// F5 crash-stop ladder against revocable LE with survivor-judged
// convergence) and charts success/cost degradation against the
// fault-free anchor. The quick matrix is part of the artifact cells CI's
// bench-gate diffs, so resilience regressions gate like any other metric.
func faults(s *session) error {
	for _, sec := range harness.FaultsPlan(s.quick, s.trials, s.seed) {
		cells, err := s.sweep(sec.Specs)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderFaults(sec.Fault, cells))
	}
	return nil
}

// epochs runs the E1-E3 repeated-election scenarios: seed-chained epoch
// histories on one persistent topology, each sweep comparing the static
// and traffic-adaptive adversary rungs against the fault-free anchor. The
// matrix lives in harness.EpochsPlan — a separate experiment from the
// -exp sweeps artifact matrix, conventionally archived as
// BENCH_epochs.json (what `make epochs-smoke` does).
func epochs(s *session) error {
	for _, sec := range harness.EpochsPlan(s.quick, s.trials, s.seed).Sections {
		cells, err := s.sweep(sec.Specs)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderEpochs(sec.Epoch, cells))
	}
	return nil
}

// scaling runs the estimate-regime size ramps (n = 10^3..10^5) with
// per-cell wall timing, prints empirical scaling exponents, and reports
// the profile-cache hit rate — the cache is what makes the second run of
// a repeated cell collapse to trial cost (the -quick smoke demonstrates
// exactly that with one 100k-node cell run twice).
func scaling(s *session) error {
	trials := pickTrials(s.trials, 2)
	if s.quick {
		trials = pickTrials(s.trials, 1)
	}
	opts := harness.TrialOpts{Trials: trials, Seed: s.seed, ProfileMode: s.profile}
	s.orch.Workers = 1 // what RunScalingSweep times each cell on; the artifact header says so
	hits0, misses0 := harness.ProfileCacheStats()
	var all []harness.TimedCell
	for _, sw := range harness.ScalingSweeps(s.quick) {
		timed, specs, err := harness.RunScalingSweep(sw, opts)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderScaling(sw.Title, timed))
		s.specs = append(s.specs, specs...)
		s.cells = append(s.cells, harness.CellsOfTimed(timed)...)
		all = append(all, timed...)
	}
	hits, misses := harness.ProfileCacheStats()
	fmt.Printf("profile cache: %d hits, %d misses this run\n", hits-hits0, misses-misses0)
	if s.quick && len(all) == 2 && all[1].PrepSeconds > 0 {
		fmt.Printf("cache speedup: cell %.2fs -> %.2fs, prepare %.2fs -> %.3fs (%.0fx)\n",
			all[0].Seconds, all[1].Seconds,
			all[0].PrepSeconds, all[1].PrepSeconds,
			all[0].PrepSeconds/all[1].PrepSeconds)
	}
	fmt.Println()
	return nil
}

// knowledge regenerates the X4 knowledge ablation (after Dieudonné-Pelc)
// on an expander and on the diameter-2 clique-of-cliques (the workloads
// and factors live in harness.KnowledgePlan, shared with the distributed
// sweep's cell matrix).
func knowledge(s *session) error {
	for _, sec := range harness.KnowledgePlan(s.quick, s.trials, s.seed) {
		cells, err := s.sweep(sec.Specs)
		if err != nil {
			return err
		}
		points, prof := harness.KnowledgePoints(sec.Factors, sec.Specs, cells)
		fmt.Println(harness.RenderAblationKnowledge(sec.Workload, prof, points))
	}
	return nil
}
