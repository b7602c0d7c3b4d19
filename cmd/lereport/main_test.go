package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonlead/internal/harness"
)

var baselinePath = filepath.Join("..", "..", "testdata", "BENCH_baseline.json")
var goldenPath = filepath.Join("..", "..", "testdata", "REPORT_baseline.md")

// TestCLIGoldenMatch: the CLI on the committed baseline reproduces the
// committed report byte for byte (the same contract the internal golden
// test pins, here through flag parsing and file IO).
func TestCLIGoldenMatch(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-title", "anonlead reproduction report — baseline", baselinePath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("CLI output differs from committed golden (%d vs %d bytes)", stdout.Len(), len(want))
	}
}

// TestCLIDeterministic: two invocations emit identical bytes.
func TestCLIDeterministic(t *testing.T) {
	render := func() string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{baselinePath}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		return stdout.String()
	}
	if render() != render() {
		t.Fatal("lereport output not byte-deterministic")
	}
}

// TestCLICSV: -format csv emits the long-form export.
func TestCLICSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "csv", baselinePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[0], "section,protocol,family,n") {
		t.Fatalf("CSV header: %s", lines[0])
	}
	if len(lines) < 100 {
		t.Fatalf("only %d CSV rows from the baseline artifact", len(lines))
	}
}

// TestCLIOutFile: -out writes the report to disk and prints the path.
func TestCLIOutFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.md")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", out, baselinePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote "+out) {
		t.Fatalf("stdout: %s", stdout.String())
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), "# Reproduction report") {
		t.Fatalf("written report wrong:\n%.200s", buf)
	}
}

// writeArtifact writes a one-cell artifact with the given messages mean.
func writeArtifact(t *testing.T, dir, name string, msgs float64) string {
	t.Helper()
	dist := func(mean float64) *harness.ArtifactDist {
		return &harness.ArtifactDist{StdDev: 1, Min: mean, Max: mean, P50: mean, P90: mean, P99: mean}
	}
	a := harness.Artifact{Schema: harness.ArtifactSchema, Cells: []harness.ArtifactCell{{
		Protocol: "ire", Family: "expander", N: 64, Trials: 8, Successes: 8,
		Messages: msgs, Bits: msgs, Rounds: 10, Charged: 10,
		MessagesDist: dist(msgs), BitsDist: dist(msgs), RoundsDist: dist(10), ChargedDist: dist(10),
	}}}
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCLISeriesTrends: three artifacts in chronological order produce a
// trajectory section classifying the improvement.
func TestCLISeriesTrends(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		writeArtifact(t, dir, "pr1.json", 1000),
		writeArtifact(t, dir, "pr2.json", 900),
		writeArtifact(t, dir, "pr3.json", 500),
	}
	var stdout, stderr bytes.Buffer
	if code := run(paths, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"## Trajectory — 3 artifacts: pr1.json → pr2.json → pr3.json",
		"1000 → 900 → 500",
		"improving",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("series output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIErrors: usage and IO failures exit 2 with a diagnostic naming the
// offending argument.
func TestCLIErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "artifact file is required"},                                               // no artifact
		{[]string{"-format", "pdf", baselinePath}, "-format"},                            // unknown format
		{[]string{filepath.Join(t.TempDir(), "missing.json")}, "missing.json"},           // unreadable file
		{[]string{"-format", "csv", "-phases", "/nonexistent", baselinePath}, "-phases"}, // md-only flag on csv
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Fatalf("args %v: stderr %q, stdout %d bytes; want a diagnostic naming %s and no output",
				tc.args, stderr.String(), stdout.Len(), tc.want)
		}
	}
}

// TestCLIUsageDocumentsFlags: -h names every flag and the series form.
func TestCLIUsageDocumentsFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-h exit %d", code)
	}
	usage := stderr.String()
	for _, want := range []string{"-format", "-out", "-title", "-rel-tol", "-sigmas", "newest.json"} {
		if !strings.Contains(usage, want) {
			t.Fatalf("usage missing %q:\n%s", want, usage)
		}
	}
}
