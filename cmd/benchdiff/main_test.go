package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"anonlead/internal/adversary"
	"anonlead/internal/harness"
	"anonlead/internal/trajectory"
)

// writeArtifact materializes an artifact in dir and returns its path.
func writeArtifact(t *testing.T, dir, name string, a harness.Artifact) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// sweepArtifact runs a real (tiny) orchestrated sweep and returns its
// artifact, optionally scaling every cost mean by factor to synthesize a
// regression or improvement.
func sweepArtifact(t *testing.T, factor float64) harness.Artifact {
	t.Helper()
	specs := []harness.CellSpec{
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "complete", N: 16},
			Opts: harness.TrialOpts{Trials: 3, Seed: 11}},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "cycle", N: 12},
			Opts: harness.TrialOpts{Trials: 3, Seed: 11}},
	}
	o := harness.Orchestrator{Workers: 2}
	cells, err := o.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := harness.NewArtifact(o, specs, cells, 0)
	if factor != 1 {
		for i := range a.Cells {
			c := &a.Cells[i]
			c.Messages *= factor
			c.Bits *= factor
			c.Rounds *= factor
			c.Charged *= factor
			for _, d := range []*harness.ArtifactDist{
				c.MessagesDist, c.BitsDist, c.RoundsDist, c.ChargedDist,
			} {
				d.Min *= factor
				d.Max *= factor
				d.P50 *= factor
				d.P90 *= factor
				d.P99 *= factor
			}
		}
	}
	return a
}

func TestBenchdiffIdenticalArtifactsExitZero(t *testing.T) {
	dir := t.TempDir()
	a := sweepArtifact(t, 1)
	base := writeArtifact(t, dir, "base.json", a)
	head := writeArtifact(t, dir, "head.json", a)
	var out, errOut bytes.Buffer
	code := run([]string{"-base", base, "-head", head, "-fail-on", "regressed"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d on identical artifacts; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "0 regressed") {
		t.Fatalf("summary missing clean verdict:\n%s", out.String())
	}
}

func TestBenchdiffRegressedArtifactExitNonZero(t *testing.T) {
	dir := t.TempDir()
	base := writeArtifact(t, dir, "base.json", sweepArtifact(t, 1))
	head := writeArtifact(t, dir, "head.json", sweepArtifact(t, 2)) // every cost doubled
	var out, errOut bytes.Buffer
	code := run([]string{"-base", base, "-head", head, "-fail-on", "regressed"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d on regressed artifact, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "🔴") {
		t.Fatalf("summary missing regression rows:\n%s", out.String())
	}
	// Without the gate the same diff reports but exits zero.
	code = run([]string{"-base", base, "-head", head}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d without -fail-on, want 0", code)
	}
}

func TestBenchdiffWritesJSONReport(t *testing.T) {
	dir := t.TempDir()
	base := writeArtifact(t, dir, "base.json", sweepArtifact(t, 1))
	head := writeArtifact(t, dir, "head.json", sweepArtifact(t, 2))
	reportPath := filepath.Join(dir, "report.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-base", base, "-head", head, "-json", reportPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errOut.String())
	}
	buf, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"regressed"`, `"cells"`, `"base_schema"`} {
		if !strings.Contains(string(buf), want) {
			t.Fatalf("report missing %s:\n%s", want, buf)
		}
	}
}

// TestBenchdiffRefusesOldSchemas: the reader accepts the current schema and
// the previous one; a v1 file (means only) and a current-schema file whose
// cell lost its distribution objects are both refused by name, not compared
// on a silent downgrade.
func TestBenchdiffRefusesOldSchemas(t *testing.T) {
	dir := t.TempDir()
	bare := harness.Artifact{
		Schema: "anonlead/bench-harness/v1",
		Cells: []harness.ArtifactCell{{
			Protocol: "ire", Family: "expander", N: 64,
			Trials: 5, Successes: 5,
			Messages: 1000, Bits: 2000, Rounds: 100, Charged: 120,
		}},
	}
	good := writeArtifact(t, dir, "good.json", sweepArtifact(t, 1))
	v1 := writeArtifact(t, dir, "v1.json", bare)
	bare.Schema = harness.ArtifactSchema
	distless := writeArtifact(t, dir, "distless.json", bare)
	for path, want := range map[string]string{
		v1:       "unknown artifact schema",
		distless: "cell 0 (ire on expander/64) lacks its distribution objects",
	} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-base", good, "-head", path}, &out, &errOut); code == 0 {
			t.Fatalf("%s accepted:\n%s", path, out.String())
		}
		if !strings.Contains(errOut.String(), want) {
			t.Fatalf("%s: stderr lacks %q:\n%s", path, want, errOut.String())
		}
	}
}

// TestBenchdiffRemovedCellsGate: with -fail-on removed, a head sweep
// missing baseline cells fails instead of silently passing with reduced
// coverage.
func TestBenchdiffRemovedCellsGate(t *testing.T) {
	dir := t.TempDir()
	full := sweepArtifact(t, 1)
	shrunk := full
	shrunk.Cells = full.Cells[:1]
	base := writeArtifact(t, dir, "base.json", full)
	head := writeArtifact(t, dir, "head.json", shrunk)
	var out, errOut bytes.Buffer
	if code := run([]string{"-base", base, "-head", head, "-fail-on", "regressed,removed"}, &out, &errOut); code != 1 {
		t.Fatalf("shrunk sweep passed the gate (exit %d)", code)
	}
	if !strings.Contains(errOut.String(), "missing from head") {
		t.Fatalf("stderr missing removed-cell verdict:\n%s", errOut.String())
	}
	// Without the removed condition the same diff still exits zero.
	if code := run([]string{"-base", base, "-head", head, "-fail-on", "regressed"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d with -fail-on regressed only, want 0", code)
	}
}

func TestBenchdiffUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-base", "x.json"}, &out, &errOut); code != 2 {
		t.Fatalf("missing -head accepted (exit %d)", code)
	}
	if code := run([]string{"-base", "x.json", "-head", "y.json", "-fail-on", "sometimes"}, &out, &errOut); code != 2 {
		t.Fatalf("bad -fail-on accepted (exit %d)", code)
	}
	if code := run([]string{"-base", "/nonexistent.json", "-head", "/nonexistent.json"}, &out, &errOut); code != 2 {
		t.Fatalf("missing file accepted (exit %d)", code)
	}
	errOut.Reset()
	if code := run([]string{"-base", "x.json", "-head", "y.json", "-format", "csv"}, &out, &errOut); code != 2 ||
		!strings.Contains(errOut.String(), "not defined: -format") {
		t.Fatalf("-format csv: exit %d, stderr %q; want 2 and an unknown-flag diagnostic", code, errOut.String())
	}
}

// TestBenchdiffUsageDocumentsGates: -h lists exactly the four flags and
// explains every gate and every field cells align by, so the CLI is
// self-documenting (not just the README/ROADMAP prose).
func TestBenchdiffUsageDocumentsGates(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 2 {
		t.Fatalf("-h exit %d", code)
	}
	usage := errOut.String()
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage, -1) {
		flags = append(flags, m[1])
	}
	if got := strings.Join(flags, " "); got != "base fail-on head json" {
		t.Fatalf("flag set %q, want exactly the four of base, head, json, fail-on:\n%s", got, usage)
	}
	want := []string{"regressed", "removed", "drift", "msgs_vs_pred", "Wilson", "Welch", "5% relative", "3 Welch", "25% relative"}
	key := reflect.TypeOf(trajectory.Key{})
	for i := 0; i < key.NumField(); i++ {
		name, _, _ := strings.Cut(key.Field(i).Tag.Get("json"), ",")
		want = append(want, name)
	}
	for _, w := range want {
		if !strings.Contains(usage, w) {
			t.Fatalf("usage missing %q:\n%s", w, usage)
		}
	}
}

// TestBenchdiffDriftGate: scaling measured costs away from the persisted
// predictions trips -fail-on drift at the fixed 25 % tolerance.
func TestBenchdiffDriftGate(t *testing.T) {
	dir := t.TempDir()
	base := writeArtifact(t, dir, "base.json", sweepArtifact(t, 1))
	head := writeArtifact(t, dir, "head.json", sweepArtifact(t, 2)) // ratio doubles
	var out, errOut bytes.Buffer
	code := run([]string{"-base", base, "-head", head, "-fail-on", "drift"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d on drifted ratios, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "drifted beyond tolerance") {
		t.Fatalf("stderr missing drift verdict:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "msgs_vs_pred") {
		t.Fatalf("summary missing drift rows:\n%s", out.String())
	}
	// Identical artifacts never drift.
	same := writeArtifact(t, dir, "same.json", sweepArtifact(t, 1))
	if code := run([]string{"-base", base, "-head", same, "-fail-on", "drift"}, &out, &errOut); code != 0 {
		t.Fatalf("identical artifacts drifted (exit %d)", code)
	}
}

// TestBenchdiffAlignsV2AgainstV3: a baseline of descriptor-less cells only
// (what an artifact older than the fault sweeps held; the name is from the
// schema pair the test was written against) diffs against a head with
// fault-injected cells without error — its cells align with the head's
// fault-free cells, and the fault-injected ones report as added.
func TestBenchdiffAlignsV2AgainstV3(t *testing.T) {
	dir := t.TempDir()
	v3 := faultySweepArtifact(t)
	v2 := harness.Artifact{Schema: harness.ArtifactSchema, RootSeed: v3.RootSeed,
		Workers: v3.Workers, Shards: v3.Shards}
	for _, c := range v3.Cells {
		if c.Adversary == "" {
			v2.Cells = append(v2.Cells, c)
		}
	}
	if len(v2.Cells) == 0 || len(v2.Cells) == len(v3.Cells) {
		t.Fatalf("test wants a mix of fault-free and faulted cells, got %d/%d", len(v2.Cells), len(v3.Cells))
	}
	base := writeArtifact(t, dir, "base_v2.json", v2)
	head := writeArtifact(t, dir, "head_v3.json", v3)
	var out, errOut bytes.Buffer
	code := run([]string{"-base", base, "-head", head, "-fail-on", "regressed,removed"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("v2 base vs v3 head exited %d:\n%s\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "added") {
		t.Fatalf("faulted head cells not reported as added:\n%s", out.String())
	}
	// And v3 against v3 aligns the faulted cells by descriptor.
	head2 := writeArtifact(t, dir, "head2_v3.json", v3)
	if code := run([]string{"-base", head, "-head", head2, "-fail-on", "regressed,removed"}, &out, &errOut); code != 0 {
		t.Fatalf("v3 self-diff exited %d:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "0 regressed") {
		t.Fatalf("v3 self-diff not clean:\n%s", out.String())
	}
}

// faultySweepArtifact runs a tiny sweep with one fault-injected cell.
func faultySweepArtifact(t *testing.T) harness.Artifact {
	t.Helper()
	specs := []harness.CellSpec{
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "complete", N: 16},
			Opts: harness.TrialOpts{Trials: 3, Seed: 11}},
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "complete", N: 16},
			Opts: harness.TrialOpts{Trials: 3, Seed: 11, Adversary: &adversary.Spec{Loss: 0.2}}},
	}
	o := harness.Orchestrator{Workers: 2}
	cells, err := o.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	return harness.NewArtifact(o, specs, cells, 0)
}

// TestBenchdiffCheckedInBaseline sanity-checks the committed baseline
// artifact: it must parse as the current schema (which ReadArtifact only
// grants to cells carrying their distributions, so the CI gate runs the
// variance-aware path).
func TestBenchdiffCheckedInBaseline(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "BENCH_baseline.json")
	a, err := harness.ReadArtifactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema != harness.ArtifactSchema {
		t.Fatalf("baseline schema %q, want %q", a.Schema, harness.ArtifactSchema)
	}
	if len(a.Cells) == 0 {
		t.Fatal("baseline has no cells")
	}
}
