// Command benchdiff compares two BENCH_harness.json artifacts and
// classifies every aligned sweep cell's metrics as improved, unchanged, or
// regressed — the cross-PR regression gate the CI bench-gate job enforces.
//
// Usage:
//
//	benchdiff -base testdata/BENCH_baseline.json -head BENCH_harness.json
//	benchdiff -base old.json -head new.json -fail-on regressed
//	benchdiff -base old.json -head new.json -fail-on regressed,removed,drift
//	benchdiff -base old.json -head new.json -json report.json
//
// The markdown summary goes to stdout (CI tees it into
// $GITHUB_STEP_SUMMARY); -json additionally writes the machine-readable
// report. -fail-on takes a comma-separated list of
// conditions: with "regressed" the exit status is 1 when any aligned
// metric regressed, with "removed" when any baseline cell vanished from
// the head sweep — without that a PR could pass the gate by simply
// deleting the cells where a regression lives — and with "drift" when any
// cell's measured/predicted ratio (messages against the paper's message
// bound, rounds against its time bound, both persisted per cell) moved by
// more than 25 % relative to the baseline ratio. A metric changes only if
// the effect clears both 5 % and 3 Welch standard errors; the thresholds
// are fixed (trajectory.Thresholds' defaults). CI runs
// "regressed,removed", which is what turns the artifact from write-only
// telemetry into an enforced perf/complexity contract.
//
// Schema handling: only the current artifact schema is accepted; any
// other is refused by name.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"anonlead/internal/trajectory"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchdiff -base BASE.json -head HEAD.json [flags]\n\n"+
			"Aligns the sweep cells of two bench artifacts by (protocol, family, n,\n"+
			"presumed_n, adversary, profile_mode, scenario) and classifies every metric\n"+
			"improved/unchanged/regressed with variance-aware thresholds: an effect must\n"+
			"clear both 5%% relative and 3 Welch standard errors (success rates compare\n"+
			"by Wilson-interval disjointness). Measured/predicted ratios (msgs_vs_pred,\n"+
			"time_vs_pred) gate separately: a ratio moving more than 25%% relative to\n"+
			"its baseline is flagged drifted. The markdown summary goes to stdout.\n"+
			"-fail-on turns verdicts into exit status 1; CI runs \"regressed,removed\".\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nExamples:\n"+
			"  benchdiff -base testdata/BENCH_baseline.json -head BENCH_harness.json\n"+
			"  benchdiff -base old.json -head new.json -fail-on regressed,removed,drift\n"+
			"  benchdiff -base old.json -head new.json -json report.json\n")
	}
	var (
		base     = fs.String("base", "", "baseline artifact (e.g. testdata/BENCH_baseline.json)")
		head     = fs.String("head", "", "candidate artifact (e.g. BENCH_harness.json)")
		jsonPath = fs.String("json", "", "also write the machine-readable report here")
		failOn   = fs.String("fail-on", "none", "comma-separated exit-1 conditions: none, regressed, removed, drift")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" {
		fmt.Fprintln(stderr, "benchdiff: -base and -head are required")
		fs.Usage()
		return 2
	}
	failRegressed, failRemoved, failDrift := false, false, false
	for _, cond := range strings.Split(*failOn, ",") {
		switch strings.TrimSpace(cond) {
		case "none", "":
		case "regressed":
			failRegressed = true
		case "removed":
			failRemoved = true
		case "drift":
			failDrift = true
		default:
			fmt.Fprintf(stderr, "benchdiff: unknown -fail-on condition %q (want none, regressed, removed, drift)\n", cond)
			return 2
		}
	}

	report, err := trajectory.DiffFiles(*base, *head)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	fmt.Fprint(stdout, report.Markdown())
	if *jsonPath != "" {
		buf, err := report.JSON()
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(stderr, "benchdiff: write report:", err)
			return 2
		}
	}
	failed := false
	if failRegressed && report.HasRegressions() {
		fmt.Fprintf(stderr, "benchdiff: %d metric(s) regressed\n", report.Regressed)
		failed = true
	}
	if failRemoved && len(report.Removed) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d baseline cell(s) missing from head (refresh the baseline if intentional)\n",
			len(report.Removed))
		failed = true
	}
	if failDrift && report.HasDrift() {
		fmt.Fprintf(stderr, "benchdiff: %d measured/predicted ratio(s) drifted beyond tolerance\n",
			report.Drifted)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}
