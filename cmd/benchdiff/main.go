// Command benchdiff compares two BENCH_harness.json artifacts and fails
// when any sweep cell changed — the cross-PR model gate the CI bench-gate
// job enforces.
//
// Usage:
//
//	benchdiff -base testdata/BENCH_baseline.json -head BENCH_harness.json
//	benchdiff -base old.json -head new.json -json report.json
//
// A sweep is a pure function of its plan and root seed, so two runs of one
// plan agree cell for cell. benchdiff aligns the cells of the two
// artifacts by identity and exits 0 only when every aligned cell encodes
// to the same JSON and no cell was added or removed (the header is only
// schema and root seed). Otherwise it exits 1, printing the changed, added
// and removed counts; `make baseline` accepts an intended change. It exits
// 2 on a usage or read error, as cmp does.
//
// The markdown summary goes to stdout (CI tees it into
// $GITHUB_STEP_SUMMARY). Under each changed cell it lists every leaf of
// the cell's encoding that differs, by dotted path with both values (e.g.
// "messages_dist.p90: 131 → 140"), then the removed and added cells.
// -json additionally writes the machine-readable report: the aligned
// count and the changed cells with those fields, and the added and
// removed keys.
//
// Schema handling: only the current artifact schema is accepted; any
// other is refused by name.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

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
		fmt.Fprintf(stderr, "usage: benchdiff -base BASE.json -head HEAD.json [-json REPORT.json]\n\n"+
			"Aligns the sweep cells of two bench artifacts by (protocol, family, n,\n"+
			"presumed_n, adversary, scenario) and exits 1 if any aligned\n"+
			"cell differs in any field, or a cell was added or removed; make baseline\n"+
			"accepts an intended change. Exit 0 means the sweeps are equal; 2 is a\n"+
			"usage or read error. The markdown summary on stdout lists under each\n"+
			"changed cell every field that differs, by dotted path with its base and\n"+
			"head values (e.g. messages_dist.p90: 131 → 140), then the removed and\n"+
			"added cells.\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nExamples:\n"+
			"  benchdiff -base testdata/BENCH_baseline.json -head BENCH_harness.json\n"+
			"  benchdiff -base old.json -head new.json -json report.json\n")
	}
	var (
		base     = fs.String("base", "", "baseline artifact (e.g. testdata/BENCH_baseline.json)")
		head     = fs.String("head", "", "candidate artifact (e.g. BENCH_harness.json)")
		jsonPath = fs.String("json", "", "also write the machine-readable report here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" {
		fmt.Fprintln(stderr, "benchdiff: -base and -head are required")
		fs.Usage()
		return 2
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
	if !report.Clean() {
		fmt.Fprintf(stderr, "benchdiff: %d changed, %d added, %d removed cell(s); make baseline accepts an intended change\n",
			len(report.Changed), len(report.Added), len(report.Removed))
		return 1
	}
	return 0
}
