package trajectory

import (
	"strings"
	"testing"

	"anonlead/internal/harness"
)

// cell builds an artifact cell with a given mean/stddev on every cost
// metric and a success count.
func cell(proto, family string, n, trials, successes int, mean, stddev float64) harness.ArtifactCell {
	dist := func() *harness.ArtifactDist {
		return &harness.ArtifactDist{
			StdDev: stddev, Min: mean - stddev, Max: mean + stddev,
			P50: mean, P90: mean + stddev, P99: mean + stddev,
		}
	}
	return harness.ArtifactCell{
		Protocol: proto, Family: family, N: n,
		Trials: trials, Successes: successes,
		Messages: mean, Bits: mean, Rounds: mean, Charged: mean,
		MessagesDist: dist(), BitsDist: dist(), RoundsDist: dist(), ChargedDist: dist(),
	}
}

func artifact(schema string, cells ...harness.ArtifactCell) harness.Artifact {
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
	if len(r.Added) != 0 || len(r.Removed) != 0 {
		t.Fatalf("phantom added/removed: %+v", r)
	}
}

func TestDiffFlagsLargeRegression(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 50))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 2000, 50))
	r := Diff(base, head, Thresholds{})
	if !r.HasRegressions() {
		t.Fatalf("2x cost increase not flagged: %+v", r)
	}
	// All four cost metrics doubled; success rate unchanged.
	if r.Regressed != 4 {
		t.Fatalf("regressed count %d, want 4", r.Regressed)
	}
	md := r.Cells[0].Metrics[0]
	if md.Metric != "messages" || md.Status != Regressed || md.RelDelta != 1 {
		t.Fatalf("messages diff %+v", md)
	}
	if md.StdErr <= 0 {
		t.Fatalf("v2 pair should carry a Welch stderr: %+v", md)
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

// TestDiffVarianceGate pins the classifier's core property: an effect that
// clears the relative tolerance but sits inside trial noise stays
// unchanged.
func TestDiffVarianceGate(t *testing.T) {
	// 10% effect, but stddev 400 over 4 trials => stderr ~283 per side,
	// Welch ~400, 3σ gate ~1200 >> 100.
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1000, 400))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1100, 400))
	r := Diff(base, head, Thresholds{})
	if r.Regressed != 0 {
		t.Fatalf("noise flagged as regression: %+v", r)
	}
	// The same 10% effect with tight variance IS a regression.
	base = artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1000, 1))
	head = artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1100, 1))
	if r = Diff(base, head, Thresholds{}); r.Regressed != 4 {
		t.Fatalf("tight-variance effect not flagged: %+v", r)
	}
}

// TestDiffRelativeToleranceGate: a statistically crisp but tiny effect
// stays unchanged.
func TestDiffRelativeToleranceGate(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 0))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1010, 0))
	r := Diff(base, head, Thresholds{})
	if r.Regressed != 0 {
		t.Fatalf("1%% drift flagged under 5%% tolerance: %+v", r)
	}
	if r = Diff(base, head, Thresholds{RelTol: 0.005}); r.Regressed != 4 {
		t.Fatalf("1%% drift not flagged under 0.5%% tolerance: %+v", r)
	}
}

func TestDiffSuccessRateWilson(t *testing.T) {
	// 10/10 -> 9/10: Wilson intervals overlap, no verdict.
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 100, 1))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 9, 100, 1))
	r := Diff(base, head, Thresholds{})
	if r.Regressed != 0 {
		t.Fatalf("one lost trial flagged: %+v", r)
	}
	// 50/50 -> 5/50: intervals disjoint, regression.
	base = artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 50, 50, 100, 1))
	head = artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 50, 5, 100, 1))
	r = Diff(base, head, Thresholds{})
	if r.Regressed != 1 {
		t.Fatalf("success collapse not flagged: %+v", r)
	}
	got := r.Cells[0].Metrics[len(r.Cells[0].Metrics)-1]
	if got.Metric != "success_rate" || got.Status != Regressed {
		t.Fatalf("success metric diff %+v", got)
	}
}

// TestDiffSuccessCollapseAtGateTrialCounts guards the gate's sensitivity
// floor: at every trial count the quick sweeps actually use (6 for
// revocable, 8 for table1), a total success collapse k/k -> 0/k must
// separate the Wilson intervals and be flagged. At 3 trials the intervals
// still overlap — which is why no gate cell runs fewer than 6.
func TestDiffSuccessCollapseAtGateTrialCounts(t *testing.T) {
	for _, trials := range []int{6, 8} {
		base := artifact(harness.ArtifactSchema, cell("revocable", "complete", 6, trials, trials, 100, 1))
		head := artifact(harness.ArtifactSchema, cell("revocable", "complete", 6, trials, 0, 100, 1))
		if r := Diff(base, head, Thresholds{}); r.Regressed != 1 {
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
	if len(r.Removed) != 1 || r.Removed[0] != (Key{Protocol: "flood", Family: "complete", N: 32}) {
		t.Fatalf("removed %+v", r.Removed)
	}
	if len(r.Added) != 1 || r.Added[0] != (Key{Protocol: "ire", Family: "cycle", N: 16}) {
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
	headCells := []harness.ArtifactCell{
		cell("ire", "expander", 64, 10, 10, 2000, 1),
		cell("flood", "complete", 32, 10, 10, 200, 1),
	}
	head := artifact(harness.ArtifactSchema, headCells...)
	md := Diff(base, head, Thresholds{}).Markdown()
	for _, want := range []string{
		"## benchdiff", "regressed", "improved",
		"ire expander/64", "flood complete/32", "🔴", "🟢",
		"Thresholds (fixed): 5 % relative, 3σ, 25 % drift.",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestMarkdownAllUnchanged(t *testing.T) {
	a := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 1))
	md := Diff(a, a, Thresholds{}).Markdown()
	if !strings.Contains(md, "All aligned metrics within thresholds") {
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
	for _, want := range []string{`"regressed": 4`, `"base_schema"`, `"rel_tol": 0.05`} {
		if !strings.Contains(string(buf), want) {
			t.Fatalf("report JSON missing %s:\n%s", want, buf)
		}
	}
}

// TestDiffRealArtifactsSelf diffs a real orchestrated sweep against
// itself: the full pipeline (run -> artifact -> diff) must come back
// clean.
func TestDiffRealArtifactsSelf(t *testing.T) {
	specs := []harness.CellSpec{
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "complete", N: 16},
			Opts: harness.TrialOpts{Trials: 3, Seed: 7}},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "cycle", N: 12},
			Opts: harness.TrialOpts{Trials: 3, Seed: 7}},
	}
	o := harness.Orchestrator{Workers: 2}
	cells, err := o.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := harness.NewArtifact(o, specs, cells, 0)
	r := Diff(a, a, Thresholds{})
	if r.Regressed != 0 || r.Improved != 0 || len(r.Added)+len(r.Removed) != 0 {
		t.Fatalf("self-diff not clean: %+v", r)
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

// TestProfileModeKeyAlignment: a cell whose profile regime switched between
// base and head (exact → estimate, e.g. a sweep crossing the auto threshold)
// reports as removed+added, never as a cost regression against the
// other-regime sibling.
func TestProfileModeKeyAlignment(t *testing.T) {
	exact := cell("ire", "expander", 300, 5, 5, 100, 1)
	est := cell("ire", "expander", 300, 5, 5, 180, 1)
	est.ProfileMode = "estimate"

	// Same workload, different regime: no pairing, no regression.
	r := Diff(artifact(harness.ArtifactSchema, exact), artifact(harness.ArtifactSchema, est), Thresholds{})
	if len(r.Cells) != 0 || r.Regressed != 0 {
		t.Fatalf("regime switch falsely aligned: %+v", r)
	}
	if len(r.Removed) != 1 || r.Removed[0].ProfileMode != "" {
		t.Fatalf("exact cell not reported removed: %+v", r.Removed)
	}
	if len(r.Added) != 1 || r.Added[0].ProfileMode != "estimate" {
		t.Fatalf("estimate cell not reported added: %+v", r.Added)
	}
	if !strings.Contains(r.Added[0].String(), "{estimate}") {
		t.Fatalf("key render missing profile mode: %s", r.Added[0])
	}

	// Same regime on both sides still aligns cleanly, keeping the mode.
	r = Diff(artifact(harness.ArtifactSchema, est), artifact(harness.ArtifactSchema, est), Thresholds{})
	if len(r.Cells) != 1 || len(r.Added)+len(r.Removed) != 0 {
		t.Fatalf("estimate self-alignment wrong: %+v", r)
	}
	if r.Cells[0].Key.ProfileMode != "estimate" {
		t.Fatalf("aligned key lost its mode: %+v", r.Cells[0].Key)
	}

	// A base of mode-less cells aligns against the head's exact cell.
	v3 := artifact(harness.ArtifactSchema, exact)
	r = Diff(v3, artifact(harness.ArtifactSchema, exact, est), Thresholds{})
	if len(r.Cells) != 1 || len(r.Added) != 1 || r.Added[0].ProfileMode != "estimate" {
		t.Fatalf("mode-less alignment wrong: %+v", r)
	}
}

// predCell attaches predictions to a cell so the drift classifier engages.
func predCell(mean, predMsgs, predTime float64) harness.ArtifactCell {
	c := cell("ire", "expander", 64, 5, 5, mean, 1)
	c.PredictedMsgs, c.PredictedTime = predMsgs, predTime
	return c
}

// TestDriftClassification: the measured/predicted ratio gates on its own
// tolerance, in both directions, independently of the cost classifier.
func TestDriftClassification(t *testing.T) {
	base := artifact(harness.ArtifactSchema, predCell(100, 50, 50))
	// Same measurement, same predictions: no drift.
	r := Diff(base, base, Thresholds{})
	if r.Drifted != 0 || r.HasDrift() {
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
	if r.Drifted != 2 || !r.HasDrift() {
		t.Fatalf("2x ratio change not flagged: %+v", r)
	}
	// Toward-the-bound movement drifts too (the ratio is a calibration,
	// not a cost).
	headDown := artifact(harness.ArtifactSchema, predCell(40, 50, 50))
	if r = Diff(base, headDown, Thresholds{}); r.Drifted != 2 {
		t.Fatalf("toward-bound drift not flagged: %+v", r)
	}
	// A wide tolerance clears it.
	if r = Diff(base, head, Thresholds{DriftTol: 1.5}); r.Drifted != 0 {
		t.Fatalf("drift flagged despite wide tolerance: %+v", r)
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
