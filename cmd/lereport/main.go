// Command lereport renders one bench artifact as a paper-style
// reproduction report: Table-1-shaped measured vs predicted tables per
// protocol×family, the Dieudonné–Pelc knowledge ablation,
// fault-degradation ladders anchored at their fault-free cells,
// repeated-election epoch scenario tables (amortized per-epoch cost and
// recovery time), and Wilson success intervals throughout.
//
// Usage:
//
//	lereport BENCH_harness.json                      # report on stdout
//	lereport -out REPORT.md BENCH_harness.json       # write to a file
//	lereport -title "PR 20" BENCH_harness.json       # custom heading
//
// The one argument is an artifact file of the current schema. Comparing
// two artifacts is benchdiff's job (benchdiff -base OLD -head NEW
// -fail-on regressed); a second artifact here is refused.
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
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lereport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		outPath = fs.String("out", "", "write the report here instead of stdout")
		title   = fs.String("title", "", "report title (default \"Reproduction report\")")
		phases  = fs.String("phases", "", "append a phase-breakdown table from this obs metrics snapshot (the -metrics-out file of lebench)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lereport [flags] artifact.json\n\n"+
			"Renders a paper-style reproduction report from one bench artifact as markdown.\n"+
			"To compare two artifacts use benchdiff -base OLD -head NEW.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "lereport: an artifact file is required")
		fs.Usage()
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "lereport: renders exactly one artifact; to compare two run "+
			"benchdiff -base OLD -head NEW -fail-on regressed")
		return 2
	}
	a, err := harness.ReadArtifactFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "lereport:", err)
		return 2
	}
	out := report.New(a, report.Options{Title: *title}).Markdown()
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
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(out), 0o644); err != nil {
			fmt.Fprintln(stderr, "lereport: write report:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", *outPath)
	} else {
		fmt.Fprint(stdout, out)
	}
	return 0
}
