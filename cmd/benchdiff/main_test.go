package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"anonlead/internal/adversary"
	"anonlead/internal/harness"
	"anonlead/internal/stats"
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
			for _, d := range []*stats.Dist{
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
	code := run([]string{"-base", base, "-head", head}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d on identical artifacts; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "**0 changed of 2 aligned cells** · 0 added · 0 removed") {
		t.Fatalf("summary missing clean verdict:\n%s", out.String())
	}
}

// TestBenchdiffRegressedArtifactExitNonZero: one more message in one
// trial of one floodmax cell of the committed gate sweep — a 1/trials
// change to that cell's mean — fails the gate and names that cell alone,
// with the one field that moved and both its values.
func TestBenchdiffRegressedArtifactExitNonZero(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join("..", "..", "testdata", "BENCH_baseline.json")
	a, err := harness.ReadArtifactFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for a.Cells[i].Protocol != harness.ProtoFlood {
		i++
	}
	c := &a.Cells[i]
	before, _ := json.Marshal(c.Messages)
	c.Messages += 1 / float64(c.Trials)
	after, _ := json.Marshal(c.Messages)
	head := writeArtifact(t, dir, "head.json", a)
	var out, errOut bytes.Buffer
	if code := run([]string{"-base", baseline, "-head", head}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d on a one-message change, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "1 changed, 0 added, 0 removed cell(s); make baseline accepts an intended change") {
		t.Fatalf("stderr missing the verdict:\n%s", errOut.String())
	}
	k := c.Key()
	md := out.String()
	moved := "  - messages: " + string(before) + " → " + string(after) + "\n"
	if !strings.Contains(md, "**Changed cells** (some field differs from the base):\n- "+k.String()+"\n"+moved+"\n") ||
		!strings.Contains(md, "**1 changed of 81 aligned cells**") {
		t.Fatalf("summary does not name %s alone:\n%s", k, md)
	}
}

// TestBenchdiffWritesJSONReport pins the -json report's top-level keys:
// the schemas, the aligned count and the changed cells (added and removed
// are omitted when empty), and nothing else.
func TestBenchdiffWritesJSONReport(t *testing.T) {
	dir := t.TempDir()
	base := writeArtifact(t, dir, "base.json", sweepArtifact(t, 1))
	head := writeArtifact(t, dir, "head.json", sweepArtifact(t, 2))
	reportPath := filepath.Join(dir, "report.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-base", base, "-head", head, "-json", reportPath}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errOut.String())
	}
	buf, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"aligned", "base_schema", "changed", "head_schema"}; !slices.Equal(keys, want) {
		t.Fatalf("report keys %v, want %v:\n%s", keys, want, buf)
	}
	if string(top["aligned"]) != "2" {
		t.Fatalf("aligned %s, want 2", top["aligned"])
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
		Cells: []harness.Cell{{
			Protocol: "ire", Workload: harness.Workload{Family: "expander", N: 64},
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

// TestBenchdiffRemovedCellsGate: a head sweep missing baseline cells fails
// instead of passing with reduced coverage, and so does one with cells the
// baseline lacks.
func TestBenchdiffRemovedCellsGate(t *testing.T) {
	dir := t.TempDir()
	full := sweepArtifact(t, 1)
	shrunk := full
	shrunk.Cells = full.Cells[:1]
	fullPath := writeArtifact(t, dir, "full.json", full)
	shrunkPath := writeArtifact(t, dir, "shrunk.json", shrunk)
	for _, tc := range []struct{ base, head, want string }{
		{fullPath, shrunkPath, "0 changed, 0 added, 1 removed cell(s)"},
		{shrunkPath, fullPath, "0 changed, 1 added, 0 removed cell(s)"},
	} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-base", tc.base, "-head", tc.head}, &out, &errOut); code != 1 {
			t.Fatalf("%s vs %s passed the gate (exit %d)", tc.base, tc.head, code)
		}
		if !strings.Contains(errOut.String(), tc.want) {
			t.Fatalf("stderr missing %q:\n%s", tc.want, errOut.String())
		}
	}
}

func TestBenchdiffUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-base", "x.json"}, &out, &errOut); code != 2 {
		t.Fatalf("missing -head accepted (exit %d)", code)
	}
	if code := run([]string{"-base", "x.json", "-head", "y.json", "-fail-on", "regressed"}, &out, &errOut); code != 2 ||
		!strings.Contains(errOut.String(), "not defined: -fail-on") {
		t.Fatalf("-fail-on: exit %d, stderr %q; want 2 and an unknown-flag diagnostic", code, errOut.String())
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

// TestBenchdiffUsageDocumentsGates: -h lists exactly the three flags and
// explains the gate, the changed-field listing and every field cells
// align by, so the CLI is self-documenting (not just the README prose).
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
	if got := strings.Join(flags, " "); got != "base head json" {
		t.Fatalf("flag set %q, want exactly the three of base, head, json:\n%s", got, usage)
	}
	want := []string{"exits 1", "any field", "added or removed", "make baseline", "Exit 0", "2 is a",
		"every field that differs", "dotted path", "messages_dist.p90: 131 → 140", "removed and\nadded cells"}
	key := reflect.TypeOf(harness.CellKey{})
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
// predictions fails the gate, and the summary names each cell that drifted
// with its messages field, base and head.
func TestBenchdiffDriftGate(t *testing.T) {
	dir := t.TempDir()
	a, doubled := sweepArtifact(t, 1), sweepArtifact(t, 2)
	base := writeArtifact(t, dir, "base.json", a)
	head := writeArtifact(t, dir, "head.json", doubled) // measured/predicted doubles
	var out, errOut bytes.Buffer
	code := run([]string{"-base", base, "-head", head}, &out, &errOut)
	if code != 1 || !strings.Contains(errOut.String(), "2 changed, 0 added, 0 removed cell(s)") {
		t.Fatalf("exit %d on drifted costs, want 1 naming 2 changed cells; stderr:\n%s", code, errOut.String())
	}
	for i, c := range a.Cells {
		before, _ := json.Marshal(c.Messages)
		after, _ := json.Marshal(doubled.Cells[i].Messages)
		if want := "- " + c.Key().String() + "\n"; !strings.Contains(out.String(), want) ||
			!strings.Contains(out.String(), "  - messages: "+string(before)+" → "+string(after)+"\n") {
			t.Fatalf("summary does not name %s with its messages field:\n%s", c.Key(), out.String())
		}
	}
	// Identical artifacts never drift.
	out.Reset()
	same := writeArtifact(t, dir, "same.json", sweepArtifact(t, 1))
	if code := run([]string{"-base", base, "-head", same}, &out, &errOut); code != 0 || strings.Contains(out.String(), "**Changed cells**") {
		t.Fatalf("identical artifacts drifted (exit %d):\n%s", code, out.String())
	}
}

// TestBenchdiffAlignsV2AgainstV3: a baseline of descriptor-less cells only
// (what an artifact older than the fault sweeps held; the name is from the
// schema pair the test was written against) diffs against a head with
// fault-injected cells without a read error — its cells align with the
// head's fault-free cells, and the fault-injected ones report as added,
// which fails the gate.
func TestBenchdiffAlignsV2AgainstV3(t *testing.T) {
	dir := t.TempDir()
	v3 := faultySweepArtifact(t)
	v2 := harness.Artifact{Schema: harness.ArtifactSchema, RootSeed: v3.RootSeed}
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
	code := run([]string{"-base", base, "-head", head}, &out, &errOut)
	if code != 1 || !strings.Contains(errOut.String(), "0 changed, 1 added, 0 removed") {
		t.Fatalf("v2 base vs v3 head exited %d:\n%s\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "**Added cells**") {
		t.Fatalf("faulted head cells not reported as added:\n%s", out.String())
	}
	// And v3 against v3 aligns the faulted cells by descriptor.
	out.Reset()
	head2 := writeArtifact(t, dir, "head2_v3.json", v3)
	if code := run([]string{"-base", head, "-head", head2}, &out, &errOut); code != 0 {
		t.Fatalf("v3 self-diff exited %d:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "**0 changed of 2 aligned cells**") {
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
// grants to cells carrying their distributions).
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
