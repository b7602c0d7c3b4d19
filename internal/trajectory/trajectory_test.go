package trajectory

import (
	"reflect"
	"strings"
	"testing"

	"anonlead"
	"anonlead/internal/harness"
	"anonlead/internal/stats"
)

// cell builds an artifact cell with a given mean/stddev on every cost
// metric and a success count.
func cell(proto, family string, n, trials, successes int, mean, stddev float64) harness.Cell {
	dist := func() *stats.Dist {
		return &stats.Dist{
			StdDev: stddev, Min: mean - stddev, Max: mean + stddev,
			P50: mean, P90: mean + stddev, P99: mean + stddev,
		}
	}
	return harness.Cell{
		Protocol: harness.Protocol(proto), Workload: harness.Workload{Family: family, N: n},
		Trials: trials, Successes: successes,
		Messages: mean, Bits: mean, Rounds: mean, Charged: mean,
		MessagesDist: dist(), BitsDist: dist(), RoundsDist: dist(), ChargedDist: dist(),
	}
}

func artifact(schema string, cells ...harness.Cell) harness.Artifact {
	return harness.Artifact{Schema: schema, Cells: cells}
}

func TestDiffIdenticalArtifactsUnchanged(t *testing.T) {
	a := artifact(harness.ArtifactSchema,
		cell("ire", "expander", 64, 10, 10, 1000, 50),
		cell("flood", "complete", 32, 10, 10, 400, 0))
	r := Diff(a, a, Thresholds{})
	if r.Regressed != 0 || r.Improved != 0 {
		t.Fatalf("identical artifacts classified as changed: %+v", r)
	}
	if r.Unchanged != 2*5 { // 4 cost metrics + success per cell
		t.Fatalf("unchanged count %d", r.Unchanged)
	}
	if len(r.Added) != 0 || len(r.Removed) != 0 || len(r.Changed) != 0 || !r.Clean() {
		t.Fatalf("phantom changed/added/removed: %+v", r)
	}
}

func TestDiffFlagsLargeRegression(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 50))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 2000, 50))
	r := Diff(base, head, Thresholds{})
	if r.Clean() || len(r.Changed) != 1 || r.Changed[0].Key != (harness.CellKey{Protocol: "ire", Family: "expander", N: 64}) {
		t.Fatalf("2x cost increase not a changed cell: %+v", r)
	}
	// All four cost metrics doubled; success rate unchanged.
	if r.Regressed != 4 {
		t.Fatalf("regressed count %d, want 4", r.Regressed)
	}
	md := r.Cells[0].Metrics[0]
	if md.Metric != "messages" || md.Status != Regressed || md.RelDelta != 1 {
		t.Fatalf("messages diff %+v", md)
	}
}

func TestDiffFlagsImprovement(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 10))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 500, 10))
	r := Diff(base, head, Thresholds{})
	if r.Improved != 4 || r.Regressed != 0 {
		t.Fatalf("halved cost not improved: %+v", r)
	}
}

// TestDiffAnyChangeIsChanged pins the gate's rule: a sweep is a pure
// function of its plan and seed, so a cell that moved at all is changed —
// a 1 % effect deep inside the trial spread, and a field the per-metric
// table does not show, alike. A changed cell names every field that moved,
// with both values, in the JSON report and in the markdown.
func TestDiffAnyChangeIsChanged(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1000, 400))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1010, 400))
	if r := Diff(base, head, Thresholds{}); len(r.Changed) != 1 || r.Regressed != 4 {
		t.Fatalf("1%% effect inside the noise not changed: %+v", r)
	}
	head = artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1000, 400))
	head.Cells[0].MessagesDist.P90++
	head.Cells[0].Conductance = 0.5
	r := Diff(base, head, Thresholds{})
	if len(r.Changed) != 1 || r.Regressed+r.Improved+r.Drifted != 0 {
		t.Fatalf("a change outside the metric table: %+v", r)
	}
	want := []FieldDiff{{Path: "messages_dist.p90", Base: "1400", Head: "1401"}, {Path: "phi", Base: "0", Head: "0.5"}}
	if got := r.Changed[0].Fields; !reflect.DeepEqual(got, want) {
		t.Fatalf("changed fields %+v, want %+v", got, want)
	}
	md := r.Markdown()
	for _, line := range []string{"  - messages_dist.p90: 1400 → 1401\n", "  - phi: 0 → 0.5\n"} {
		if !strings.Contains(md, line) {
			t.Fatalf("markdown does not name %q:\n%s", line, md)
		}
	}
}

// TestLeavesNamesEveryLeafByPath: nested objects and array elements get
// dotted paths, and each leaf keeps its JSON text.
func TestLeavesNamesEveryLeafByPath(t *testing.T) {
	got := leaves([]byte(`{"a":1.50,"l":[2,"x"],"s":{"t":true,"u":{"v":null}}}`))
	want := map[string]string{"a": "1.50", "l.0": "2", "l.1": `"x"`, "s.t": "true", "s.u.v": "null"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("leaves %v, want %v", got, want)
	}
}

// TestDiffSuccessRateWilson: the success rate compares exactly, higher
// being better. One lost trial of ten is a regression although the two
// Wilson intervals overlap, and a gained one is an improvement.
func TestDiffSuccessRateWilson(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 100, 1))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 9, 100, 1))
	r := Diff(base, head, Thresholds{})
	if r.Regressed != 1 || len(r.Changed) != 1 {
		t.Fatalf("one lost trial not flagged: %+v", r)
	}
	got := r.Cells[0].Metrics[len(r.Cells[0].Metrics)-1]
	if got.Metric != "success_rate" || got.Status != Regressed {
		t.Fatalf("success metric diff %+v", got)
	}
	if r = Diff(head, base, Thresholds{}); r.Improved != 1 || r.Regressed != 0 {
		t.Fatalf("one gained trial not improved: %+v", r)
	}
}

// TestDiffSuccessCollapseAtGateTrialCounts: at every trial count the
// quick sweeps actually use (6 for revocable, 8 for table1), a total
// success collapse k/k -> 0/k is one regressed metric on a changed cell.
func TestDiffSuccessCollapseAtGateTrialCounts(t *testing.T) {
	for _, trials := range []int{6, 8} {
		base := artifact(harness.ArtifactSchema, cell("revocable", "complete", 6, trials, trials, 100, 1))
		head := artifact(harness.ArtifactSchema, cell("revocable", "complete", 6, trials, 0, 100, 1))
		if r := Diff(base, head, Thresholds{}); r.Regressed != 1 || len(r.Changed) != 1 {
			t.Fatalf("total collapse at %d trials not flagged: %+v", trials, r)
		}
	}
}

func TestMarkdownZeroBaseRendersNew(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 0, 0))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 50, 0))
	r := Diff(base, head, Thresholds{})
	if r.Regressed != 4 {
		t.Fatalf("metric appearing from zero not flagged: %+v", r)
	}
	md := r.Markdown()
	if strings.Contains(md, "+0.0%") || !strings.Contains(md, "| new |") {
		t.Fatalf("zero-base delta rendered misleadingly:\n%s", md)
	}
}

// TestDiffCellAlignment covers added/removed cells and key identity
// including presumed_n.
func TestDiffCellAlignment(t *testing.T) {
	removed := cell("flood", "complete", 32, 5, 5, 400, 1)
	kept := cell("ire", "expander", 64, 5, 5, 1000, 1)
	added := cell("ire", "cycle", 16, 5, 5, 50, 1)
	presumed := cell("ire", "expander", 64, 5, 5, 900, 1)
	presumed.PresumedN = 128 // distinct key from kept despite same (proto, family, n)

	base := artifact(harness.ArtifactSchema, kept, removed, presumed)
	head := artifact(harness.ArtifactSchema, kept, added, presumed)
	r := Diff(base, head, Thresholds{})
	if len(r.Cells) != 2 {
		t.Fatalf("aligned cells %d, want 2", len(r.Cells))
	}
	if len(r.Removed) != 1 || r.Removed[0] != (harness.CellKey{Protocol: "flood", Family: "complete", N: 32}) {
		t.Fatalf("removed %+v", r.Removed)
	}
	if len(r.Added) != 1 || r.Added[0] != (harness.CellKey{Protocol: "ire", Family: "cycle", N: 16}) {
		t.Fatalf("added %+v", r.Added)
	}
	if r.Cells[1].Key.PresumedN != 128 {
		t.Fatalf("presumed cell misaligned: %+v", r.Cells[1].Key)
	}
	if r.Regressed != 0 {
		t.Fatalf("alignment produced spurious regressions: %+v", r)
	}
}

func TestDiffDuplicateKeysPairByOccurrence(t *testing.T) {
	a := cell("ire", "cycle", 16, 5, 5, 100, 1)
	b := cell("ire", "cycle", 16, 5, 5, 200, 1)
	base := artifact(harness.ArtifactSchema, a, b)
	head := artifact(harness.ArtifactSchema, a, b, b)
	r := Diff(base, head, Thresholds{})
	if len(r.Cells) != 2 || r.Regressed != 0 {
		t.Fatalf("duplicate keys misaligned: %+v", r)
	}
	if len(r.Added) != 1 {
		t.Fatalf("extra duplicate not reported added: %+v", r.Added)
	}
}

func TestMarkdownRendersChanges(t *testing.T) {
	base := artifact(harness.ArtifactSchema,
		cell("ire", "expander", 64, 10, 10, 1000, 1),
		cell("flood", "complete", 32, 10, 10, 400, 1))
	headCells := []harness.Cell{
		cell("ire", "expander", 64, 10, 10, 2000, 1),
		cell("flood", "complete", 32, 10, 10, 200, 1),
	}
	head := artifact(harness.ArtifactSchema, headCells...)
	md := Diff(base, head, Thresholds{}).Markdown()
	for _, want := range []string{
		"## benchdiff", "**2 changed of 2 aligned cells** · 0 added · 0 removed",
		"4 regressed · 4 improved", "| ire expander/64 | messages | 1000 | 2000 | +100% | 🔴 regressed |",
		"flood complete/32", "🟢", "**Changed cells**", "`make baseline` accepts an intended change.",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestMarkdownAllUnchanged(t *testing.T) {
	a := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 1))
	md := Diff(a, a, Thresholds{}).Markdown()
	if !strings.Contains(md, "**0 changed of 1 aligned cells**") || !strings.Contains(md, "Every aligned cell is identical.") {
		t.Fatalf("markdown missing all-clear:\n%s", md)
	}
}

func TestReportJSONRoundTrips(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 1))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 2000, 1))
	buf, err := Diff(base, head, Thresholds{}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"regressed": 4`, `"base_schema"`, `"changed": [`} {
		if !strings.Contains(string(buf), want) {
			t.Fatalf("report JSON missing %s:\n%s", want, buf)
		}
	}
}

// TestDiffRealArtifactsSelf diffs a real orchestrated sweep against
// itself and against its own JSON round trip: the full pipeline (run ->
// artifact -> encode -> decode -> diff) must come back clean, including a
// cell with a round profile and an epoch-scenario cell.
func TestDiffRealArtifactsSelf(t *testing.T) {
	specs := []harness.CellSpec{
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "complete", N: 16},
			Opts: harness.TrialOpts{Trials: 3, Seed: 7}},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "cycle", N: 12},
			Opts: harness.TrialOpts{Trials: 3, Seed: 7, RoundProfile: true}},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "complete", N: 8},
			Opts: harness.TrialOpts{Trials: 3, Seed: 7, Epochs: &anonlead.Scenario{Epochs: 3}}},
	}
	o := harness.Orchestrator{Workers: 2}
	cells, err := o.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := harness.NewArtifact(o, specs, cells, 0)
	if a.Cells[1].RoundProf == nil || a.Cells[2].EpochStats == nil {
		t.Fatal("sweep lacks its round-profile or epoch-scenario cell")
	}
	buf, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := harness.ReadArtifact(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []harness.Artifact{a, back} {
		r := Diff(a, head, Thresholds{})
		if !r.Clean() || r.Regressed+r.Improved+r.Drifted != 0 || len(r.Cells) != len(specs) {
			t.Fatalf("self-diff not clean: %+v", r)
		}
	}
}

// TestAdversaryKeyAlignment: cells identical except for the adversary
// descriptor are distinct sweep cells — a faulted cell never pairs with
// its fault-free sibling.
func TestAdversaryKeyAlignment(t *testing.T) {
	plain := cell("ire", "expander", 64, 5, 5, 100, 1)
	faulted := cell("ire", "expander", 64, 5, 3, 40, 1)
	faulted.Adversary = "loss=0.1"
	base := artifact(harness.ArtifactSchema, plain, faulted)

	// Head with the same two cells: both align by key, nothing added.
	r := Diff(base, base, Thresholds{})
	if len(r.Cells) != 2 || len(r.Added)+len(r.Removed) != 0 {
		t.Fatalf("v3 self-alignment wrong: %+v", r)
	}
	if r.Cells[1].Key.Adversary != "loss=0.1" {
		t.Fatalf("faulted key lost its adversary: %+v", r.Cells[1].Key)
	}
	if !strings.Contains(r.Cells[1].Key.String(), "[loss=0.1]") {
		t.Fatalf("key render missing adversary: %s", r.Cells[1].Key)
	}

	// Dropping the faulted cell from head reports it removed, not merged
	// into the fault-free cell.
	head := artifact(harness.ArtifactSchema, plain)
	r = Diff(base, head, Thresholds{})
	if len(r.Cells) != 1 || len(r.Removed) != 1 || r.Removed[0].Adversary != "loss=0.1" {
		t.Fatalf("faulted cell not tracked separately: %+v", r)
	}

	// A base of descriptor-less cells aligns against the head's fault-free
	// cell only.
	v2 := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 5, 5, 100, 1))
	r = Diff(v2, base, Thresholds{})
	if len(r.Cells) != 1 || len(r.Added) != 1 || r.Added[0].Adversary != "loss=0.1" {
		t.Fatalf("descriptor-less alignment wrong: %+v", r)
	}
}

// predCell attaches predictions to a cell so the drift classifier engages.
func predCell(mean, predMsgs, predTime float64) harness.Cell {
	c := cell("ire", "expander", 64, 5, 5, mean, 1)
	c.PredictedMsgs, c.PredictedTime = predMsgs, predTime
	return c
}

// TestDriftClassification: the measured/predicted ratio drifts at its own
// fixed tolerance, in both directions, independently of the cost metrics.
func TestDriftClassification(t *testing.T) {
	base := artifact(harness.ArtifactSchema, predCell(100, 50, 50))
	// Same measurement, same predictions: no drift.
	r := Diff(base, base, Thresholds{})
	if r.Drifted != 0 {
		t.Fatalf("self-diff drifted: %+v", r)
	}
	found := 0
	for _, md := range r.Cells[0].Metrics {
		if md.Metric == "msgs_vs_pred" || md.Metric == "time_vs_pred" {
			found++
			if md.Base != 2 || md.Head != 2 || md.Status != Unchanged {
				t.Fatalf("drift metric wrong: %+v", md)
			}
		}
	}
	if found != 2 {
		t.Fatalf("drift metrics missing (%d found)", found)
	}

	// Head ratio moves 2x (measured doubled, predictions fixed): drift in
	// the away-from-bound direction.
	head := artifact(harness.ArtifactSchema, predCell(200, 50, 50))
	r = Diff(base, head, Thresholds{})
	if r.Drifted != 2 {
		t.Fatalf("2x ratio change not flagged: %+v", r)
	}
	// Toward-the-bound movement drifts too (the ratio is a calibration,
	// not a cost).
	headDown := artifact(harness.ArtifactSchema, predCell(40, 50, 50))
	if r = Diff(base, headDown, Thresholds{}); r.Drifted != 2 {
		t.Fatalf("toward-bound drift not flagged: %+v", r)
	}
	// A 20 % move stays inside the fixed 25 % tolerance.
	if r = Diff(base, artifact(harness.ArtifactSchema, predCell(120, 50, 50)), Thresholds{}); r.Drifted != 0 {
		t.Fatalf("20%% ratio move drifted: %+v", r)
	}
	// Cells without predictions emit no drift metrics at all.
	noPred := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 5, 5, 100, 1))
	r = Diff(noPred, noPred, Thresholds{})
	for _, md := range r.Cells[0].Metrics {
		if md.Metric == "msgs_vs_pred" || md.Metric == "time_vs_pred" {
			t.Fatalf("drift metric emitted without predictions: %+v", md)
		}
	}
}
