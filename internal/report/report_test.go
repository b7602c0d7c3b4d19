package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonlead/internal/harness"
	"anonlead/internal/stats"
)

// baselinePath is the committed regression-gate artifact the golden
// report is rendered from.
var baselinePath = filepath.Join("..", "..", "testdata", "BENCH_baseline.json")

// goldenPath is the committed render of the baseline artifact, linked
// from the README; `make baseline` refreshes both together.
var goldenPath = filepath.Join("..", "..", "testdata", "REPORT_baseline.md")

// goldenTitle matches the title the Makefile's baseline target renders
// the committed report with.
const goldenTitle = "anonlead reproduction report — baseline"

// TestBaselineReportGolden pins the report bytes: the committed
// REPORT_baseline.md must be exactly what the committed baseline
// artifact renders to (UPDATE_GOLDEN=1 regenerates, or `make baseline`).
func TestBaselineReportGolden(t *testing.T) {
	a, err := harness.ReadArtifactFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(New(a, Options{Title: goldenTitle}).Markdown())
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report drifted from golden (UPDATE_GOLDEN=1 or `make baseline` regenerates); got %d bytes, want %d", len(got), len(want))
	}
}

// TestBaselineReportDeterministic: two renders of the same artifact are
// byte-identical.
func TestBaselineReportDeterministic(t *testing.T) {
	a, err := harness.ReadArtifactFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := New(a, Options{}), New(a, Options{})
	if r1.Markdown() != r2.Markdown() {
		t.Fatal("markdown render not deterministic")
	}
}

// TestBaselineReportSections: the committed artifact reconstructs into
// the expected paper sections — Table 1 families for every protocol, both
// knowledge sweeps, and all eight fault ladders (F5 revocable included).
func TestBaselineReportSections(t *testing.T) {
	a, err := harness.ReadArtifactFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	r := New(a, Options{})
	if r.Cells != len(a.Cells) {
		t.Fatalf("cell count %d, want %d", r.Cells, len(a.Cells))
	}
	protos := map[string]bool{}
	for _, ft := range r.Families {
		protos[ft.Protocol] = true
	}
	for _, p := range []string{"ire", "walknotify", "flood", "revocable"} {
		if !protos[p] {
			t.Fatalf("Table 1 missing protocol %s (have %v)", p, protos)
		}
	}
	if len(r.Knowledge) != 2 {
		t.Fatalf("%d knowledge sweeps, want 2", len(r.Knowledge))
	}
	for _, kt := range r.Knowledge {
		if !kt.HasAnchor {
			t.Fatalf("knowledge sweep %s/%d lost its truthful anchor", kt.Family, kt.N)
		}
	}
	if len(r.Faults) != 8 {
		t.Fatalf("%d fault ladders, want 8", len(r.Faults))
	}
	var revocable *FaultTable
	for i := range r.Faults {
		if !r.Faults[i].HasAnchor {
			t.Fatalf("fault ladder %+v lost its anchor", r.Faults[i])
		}
		if r.Faults[i].Protocol == "revocable" {
			revocable = &r.Faults[i]
		}
	}
	if revocable == nil || revocable.Kinds != "crash" {
		t.Fatalf("revocable crash ladder missing: %+v", revocable)
	}
	// No sweep cell may be double-counted or dropped by the sectioning.
	total := 0
	for _, ft := range r.Families {
		total += len(ft.Rows)
	}
	for _, kt := range r.Knowledge {
		total += len(kt.Rows)
	}
	for _, ft := range r.Faults {
		total += len(ft.Rows)
	}
	if total != len(a.Cells) {
		t.Fatalf("sections carry %d rows, artifact has %d cells", total, len(a.Cells))
	}
}

// synthCell builds a minimal cell.
func synthCell(proto, family string, n int, msgs float64, opts ...func(*harness.Cell)) harness.Cell {
	dist := func(mean float64) *stats.Dist {
		return &stats.Dist{StdDev: 1, Min: mean, Max: mean, P50: mean, P90: mean, P99: mean}
	}
	c := harness.Cell{
		Protocol: harness.Protocol(proto), Workload: harness.Workload{Family: family, N: n}, M: n, Diameter: 2, MixingTime: 4,
		Conductance: 0.5, Trials: 8, Successes: 8,
		Messages: msgs, Bits: 2 * msgs, Rounds: 10, Charged: 12,
		MessagesDist: dist(msgs), BitsDist: dist(2 * msgs),
		RoundsDist: dist(10), ChargedDist: dist(12),
		PredictedMsgs: msgs / 2, PredictedTime: 5,
	}
	for _, o := range opts {
		o(&c)
	}
	return c
}

func withAdversary(desc string) func(*harness.Cell) {
	return func(c *harness.Cell) { c.Adversary = desc }
}

func withPresumed(p int) func(*harness.Cell) {
	return func(c *harness.Cell) { c.PresumedN = p }
}

// TestSectioning covers the reconstruction rules on a synthetic artifact:
// family grouping, a knowledge sweep, an anchored ladder, and a bare
// (anchorless) faulted cell.
func TestSectioning(t *testing.T) {
	a := harness.Artifact{Schema: harness.ArtifactSchema, Cells: []harness.Cell{
		synthCell("ire", "expander", 32, 1000),
		synthCell("ire", "expander", 64, 2000),
		synthCell("ire", "expander", 64, 1800, withPresumed(32)),
		synthCell("ire", "expander", 64, 2000, withPresumed(64)),
		synthCell("ire", "expander", 64, 2000),                           // ladder anchor
		synthCell("ire", "expander", 64, 900, withAdversary("loss=0.1")), // ladder step
		synthCell("ire", "expander", 64, 500, withAdversary("loss=0.1,crash=0.5@8")),
		synthCell("flood", "cycle", 16, 60, withAdversary("churn=0.3")), // bare faulted cell
	}}
	r := New(a, Options{Title: "synthetic"})

	if len(r.Families) != 1 || len(r.Families[0].Rows) != 2 {
		t.Fatalf("families wrong: %+v", r.Families)
	}
	if r.Families[0].MsgExponentR2 == 0 {
		t.Fatal("family scaling exponent not fitted")
	}
	if len(r.Knowledge) != 1 || len(r.Knowledge[0].Rows) != 2 || !r.Knowledge[0].HasAnchor {
		t.Fatalf("knowledge wrong: %+v", r.Knowledge)
	}
	if x := r.Knowledge[0].Rows[0].XMsgs; x != 0.9 {
		t.Fatalf("knowledge anchor ratio %v, want 0.9", x)
	}
	if len(r.Faults) != 2 {
		t.Fatalf("faults wrong: %+v", r.Faults)
	}
	ladder := r.Faults[0]
	if !ladder.HasAnchor || len(ladder.Rows) != 3 || ladder.Kinds != "loss+crash" {
		t.Fatalf("anchored ladder wrong: %+v", ladder)
	}
	if x := ladder.Rows[1].XMsgs; x != 0.45 {
		t.Fatalf("ladder anchor ratio %v, want 0.45", x)
	}
	bare := r.Faults[1]
	if bare.HasAnchor || bare.Kinds != "churn" || bare.Rows[0].XMsgs != 0 {
		t.Fatalf("bare ladder wrong: %+v", bare)
	}

	md := r.Markdown()
	for _, want := range []string{
		"# synthetic",
		"## Table 1",
		"### `ire` on expander",
		"Empirical scaling",
		"## Knowledge ablation",
		"### `ire` on expander, n = 64",
		"## Fault degradation",
		"— loss+crash ladder",
		"`loss=0.1,crash=0.5@8`",
		"no fault-free anchor cell",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}

	// Duplicate keys: a ladder anchor right after the Table-1 cell it
	// shares every identity field with still anchors the ladder, and the
	// family table keeps only its own cell.
	dup := New(harness.Artifact{Schema: harness.ArtifactSchema, Cells: []harness.Cell{
		synthCell("ire", "expander", 64, 1000),
		synthCell("ire", "expander", 64, 2000), // ladder anchor, same key
		synthCell("ire", "expander", 64, 400, withAdversary("loss=0.2")),
	}}, Options{})
	if len(dup.Families) != 1 || len(dup.Families[0].Rows) != 1 || dup.Families[0].Rows[0].Cell.Messages != 1000 {
		t.Fatalf("duplicate-key family table wrong: %+v", dup.Families)
	}
	if len(dup.Faults) != 1 || !dup.Faults[0].HasAnchor || len(dup.Faults[0].Rows) != 2 ||
		dup.Faults[0].Rows[0].Cell.Messages != 2000 || dup.Faults[0].Rows[1].XMsgs != 0.2 {
		t.Fatalf("duplicate-key ladder wrong: %+v", dup.Faults)
	}
}

// TestEstimateMarker: a cell's size alone marks its tmix as an estimate —
// the same n > spectral.MixingTimeExactLimit rule ProfileGraph branches
// on — and the footnote explaining the marker appears once.
func TestEstimateMarker(t *testing.T) {
	md := New(harness.Artifact{Schema: harness.ArtifactSchema, Cells: []harness.Cell{
		synthCell("flood", "expander", 256, 1000),
		synthCell("flood", "expander", 257, 1000),
	}}, Options{}).Markdown()
	for _, want := range []string{"| 256 | 256 | 2 | 4 | ", "| 257 | 257 | 2 | 4\\* | "} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing row %q:\n%s", want, md)
		}
	}
	if got := strings.Count(md, "\\* estimate-regime profile"); got != 1 {
		t.Fatalf("estimate footnote appears %d times, want once:\n%s", got, md)
	}
}
