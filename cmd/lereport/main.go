// Command lereport renders a bench artifact (or an ordered series of
// them) as a paper-style reproduction report: Table-1-shaped measured vs
// predicted tables per protocol×family, the Dieudonné–Pelc knowledge
// ablation, fault-degradation ladders anchored at their fault-free
// cells, repeated-election epoch scenario tables (amortized per-epoch
// cost and recovery time), Wilson success intervals throughout, and —
// given two or more
// artifacts — per-metric trend classification (improving/flat/
// regressing) across the series using the trajectory package's
// variance-aware Welch gates.
//
// Usage:
//
//	lereport BENCH_harness.json                      # report on stdout
//	lereport -out REPORT.md BENCH_harness.json       # write to a file
//	lereport -format csv BENCH_harness.json          # tidy per-(cell,metric) rows
//	lereport old.json mid.json new.json              # series: newest reported + trends
//	lereport -rel-tol 0.1 -sigmas 2 a.json b.json    # looser trend thresholds
//	lereport -fail-on regressing a.json b.json       # exit 1 when a net trend regresses
//
// Arguments are artifact files in chronological order, oldest first. With
// one artifact the report has no trend section; with two or more, the
// report describes the newest artifact and appends the trajectory
// section (cells must be present at every series point to be classified;
// the rest are listed as partial). Only the current artifact schema is
// accepted.
//
// -phases FILE appends a phase-breakdown table (phase | spans | total |
// mean | share) rendered from an obs metrics snapshot — the -metrics-out
// file that lebench writes when observability is enabled. Phase
// timings are wall-clock, so the section is opt-in and never part of the
// byte-deterministic baseline report.
//
// Output is byte-deterministic for the same inputs — the committed
// testdata/REPORT_baseline.md is the golden render of
// testdata/BENCH_baseline.json (refresh both together: make baseline).
// CI renders the head sweep's report into the job summary and archives
// it per run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"anonlead/internal/harness"
	"anonlead/internal/obs"
	"anonlead/internal/report"
	"anonlead/internal/trajectory"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lereport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format  = fs.String("format", "md", "output format: md (paper-style markdown) or csv (one row per cell metric)")
		outPath = fs.String("out", "", "write the report here instead of stdout")
		title   = fs.String("title", "", "report title (default \"Reproduction report\")")
		relTol  = fs.Float64("rel-tol", 0, "series trend: minimum relative effect to call a change (0 = default 0.05)")
		sigmas  = fs.Float64("sigmas", 0, "series trend: minimum effect in Welch standard errors (0 = default 3)")
		failOn  = fs.String("fail-on", "none", "exit-1 condition: none, or regressing (any net metric trend regresses; needs a series)")
		phases  = fs.String("phases", "", "append a phase-breakdown table from this obs metrics snapshot (the -metrics-out file of lebench; md format only)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lereport [flags] artifact.json [older.json ... newest.json]\n\n"+
			"Renders a paper-style reproduction report from one bench artifact, or from an\n"+
			"ordered series (oldest first): the newest artifact is reported and a per-metric\n"+
			"trend section (improving/flat/regressing) is appended.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "lereport: at least one artifact file is required")
		fs.Usage()
		return 2
	}
	if *format != "md" && *format != "csv" {
		fmt.Fprintf(stderr, "lereport: unknown -format %q (want md or csv)\n", *format)
		return 2
	}
	if *format == "csv" && *phases != "" {
		fmt.Fprintln(stderr, "lereport: -phases appends a markdown table and does not combine with -format csv")
		return 2
	}
	if *failOn != "none" && *failOn != "regressing" {
		fmt.Fprintf(stderr, "lereport: unknown -fail-on condition %q (want none or regressing)\n", *failOn)
		return 2
	}
	opts := report.Options{
		Title: *title,
		Trend: trajectory.Thresholds{RelTol: *relTol, Sigmas: *sigmas},
	}

	var rep report.Report
	if len(paths) == 1 {
		a, err := harness.ReadArtifactFile(paths[0])
		if err != nil {
			fmt.Fprintln(stderr, "lereport:", err)
			return 2
		}
		rep = report.New(a, opts)
	} else {
		series, err := trajectory.LoadSeries(paths...)
		if err != nil {
			fmt.Fprintln(stderr, "lereport:", err)
			return 2
		}
		rep = report.NewSeries(series, opts)
	}

	var out string
	if *format == "csv" {
		var err error
		if out, err = rep.CSV(); err != nil {
			fmt.Fprintln(stderr, "lereport:", err)
			return 2
		}
	} else {
		out = rep.Markdown()
		if *phases != "" {
			points, err := obs.ReadSnapshotFile(*phases)
			if err != nil {
				fmt.Fprintln(stderr, "lereport:", err)
				return 2
			}
			stats := obs.PhaseStats(points)
			if len(stats) == 0 {
				fmt.Fprintf(stderr, "lereport: %s has no anonlead_phase_seconds series (run with -trace-out/-metrics-out enabled)\n", *phases)
				return 2
			}
			out += report.PhaseMarkdown(stats)
		}
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(out), 0o644); err != nil {
			fmt.Fprintln(stderr, "lereport: write report:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", *outPath)
	} else {
		fmt.Fprint(stdout, out)
	}
	// The trend gate: a single artifact has no trajectory (rep.Trends is
	// nil), so the series-gate CI job no-ops gracefully until enough
	// archived artifacts accumulate.
	if *failOn == "regressing" && rep.Trends != nil && rep.Trends.HasRegressions() {
		fmt.Fprintf(stderr, "lereport: %d metric trend(s) regressing across the series\n", rep.Trends.Regressing)
		return 1
	}
	return 0
}
