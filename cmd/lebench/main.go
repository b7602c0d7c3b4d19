// Command lebench regenerates the paper's evaluation: every experiment that
// produces cells is plan → Orchestrator.RunSweep → artifact → report, and
// stdout is the markdown `lereport` renders from the -json artifact. The
// series that produce no cells (Figures 1-2, X1-X3) print internal/report's
// markdown series tables before it.
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
//	lebench -exp sweeps -quick -json BENCH_harness.json  # CI's gate sweep
//
// README "lebench" lists every flag; docs/ARCHITECTURE.md "Observability"
// covers -round-profile, -trace-out and -cpuprofile.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"anonlead/internal/harness"
	"anonlead/internal/obs"
	"anonlead/internal/report"
	"anonlead/internal/stats"
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
	orch      harness.Orchestrator
	jsonPath  string
	roundProf bool

	specs []harness.CellSpec
	cells []harness.Cell
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
// the results for the artifact. -round-profile is applied here, so one flag
// reaches every experiment's TrialOpts.
func (s *session) sweep(specs []harness.CellSpec) error {
	if s.roundProf {
		for i := range specs {
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
		jsonPath   = flag.String("json", "", "write the machine-readable sweep artifact (e.g. BENCH_harness.json)")
		roundProf  = flag.Bool("round-profile", false, "attach deterministic per-round message/halt histograms to every sweep cell (the artifact's round_profile section)")
		traceOut   = flag.String("trace-out", "", "write the run's phase spans as Chrome trace-event JSON (open in chrome://tracing or Perfetto; render with lereport -phases)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU pprof profile of the run")
	)
	flag.Parse()
	if *trials < 0 {
		return fmt.Errorf("-trials must be >= 0 (0 = experiment default), got %d", *trials)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}

	if *traceOut != "" {
		obs.Enable()
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
		orch:      harness.Orchestrator{Workers: *workers},
		jsonPath:  *jsonPath,
		roundProf: *roundProf,
		start:     time.Now(),
	}
	defer writeTrace(*traceOut)

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

// writeTrace flushes the run's span log (a no-op when the flag is empty).
// Failure is a warning: telemetry must never turn a finished sweep into a
// failed run.
func writeTrace(traceOut string) {
	if traceOut == "" {
		return
	}
	if err := obs.WriteChromeTraceFile(traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "lebench: trace-out:", err)
	} else {
		fmt.Printf("wrote %s (%d spans)\n", traceOut, len(obs.SpanEvents()))
	}
}

// finish assembles the session's cells into the artifact, prints its
// report — the markdown lereport renders from the file, since the artifact
// holds no wall-clock field — writes the file when -json names one, and
// ends with the run's size and speed on stderr, which no file records.
func (s *session) finish(exp string) error {
	if s.jsonPath != "" && len(s.cells) == 0 {
		fmt.Fprintf(os.Stderr, "lebench: note: -exp %s swept no cells, so the artifact has none (every experiment but figures does)\n", exp)
	}
	elapsed := time.Since(s.start)
	a := harness.NewArtifact(s.orch, s.specs, s.cells, elapsed)
	if len(a.Cells) > 0 {
		fmt.Print(report.New(a, report.Options{}).Markdown())
	}
	if s.jsonPath != "" {
		if err := a.WriteFile(s.jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells)\n", s.jsonPath, len(a.Cells))
	}
	trials := 0
	for _, c := range s.cells {
		trials += c.Trials
	}
	fmt.Fprintf(os.Stderr, "lebench: %d cells, %d trials in %.2fs (%.1f trials/s)\n",
		len(s.cells), trials, elapsed.Seconds(), float64(trials)/elapsed.Seconds())
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
	fmt.Print(report.SplitBrainMarkdown(presumed, points))
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
	fmt.Print(report.CautiousMarkdown(w, prof, points))

	factors := []float64{0.25, 0.5, 1, 2, 4}
	wpoints, err := harness.AblationWalks(s.orch, w, factors, trials, s.seed)
	if err != nil {
		return err
	}
	fmt.Print(report.WalksMarkdown(w, wpoints))

	dw := harness.Workload{Family: "cycle", N: 16}
	dpoints, err := harness.AblationDiffusion(dw, 0.5, 64, s.seed)
	if err != nil {
		return err
	}
	fmt.Print(report.DiffusionMarkdown(dw, dpoints))
	return nil
}

// scaling runs the estimate-regime size ramps (harness.ScalingPlan) one
// cell at a time on one worker, because the wall clock per cell is the
// measurement and a pool would smear prepare and trial costs across cells.
// It prints only what the report never consults: seconds per cell and the
// wall-time exponent of each ramp. Every cell is its own sweep, so its
// seconds cover its graph build and profile as well as its trials, in
// every ramp alike (the -quick smoke is one cold 100k-node cell). The
// cells go to the report and the artifact like any others.
func scaling(s *session) error {
	s.orch.Workers = 1
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
	}
	fmt.Println()
	return nil
}
