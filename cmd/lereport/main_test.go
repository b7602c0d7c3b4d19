package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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

// TestCLIErrors: usage and IO failures exit 2 with a diagnostic naming the
// offending argument — among them a second artifact (comparison is
// benchdiff's job, and the message says so) and the flags of the deleted
// series and CSV modes.
func TestCLIErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "artifact file is required"},
		{[]string{baselinePath, baselinePath}, "benchdiff -base OLD -head NEW -fail-on regressed"},
		{[]string{filepath.Join(t.TempDir(), "missing.json")}, "missing.json"},
		{[]string{"-phases", filepath.Join(t.TempDir(), "missing-obs.json"), baselinePath}, "missing-obs.json"},
		{[]string{"-format", "csv", baselinePath}, "not defined: -format"},
		{[]string{"-fail-on", "regressing", baselinePath}, "not defined: -fail-on"},
		{[]string{"-rel-tol", "0.1", baselinePath}, "not defined: -rel-tol"},
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

// TestCLIUsageDocumentsFlags: -h lists exactly the three flags, and says
// where comparison lives.
func TestCLIUsageDocumentsFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-h exit %d", code)
	}
	usage := stderr.String()
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage, -1) {
		flags = append(flags, m[1])
	}
	if got := strings.Join(flags, " "); got != "out phases title" {
		t.Fatalf("flag set %q, want exactly out, phases, title:\n%s", got, usage)
	}
	if !strings.Contains(usage, "benchdiff -base OLD -head NEW") {
		t.Fatalf("usage does not point at benchdiff:\n%s", usage)
	}
}
