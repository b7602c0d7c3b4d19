package report

import (
	"strings"
	"testing"

	"anonlead/internal/harness"
)

// withScenario marks a synthetic cell as a repeated-election scenario
// cell: the scenario descriptor plus the amortized epoch aggregates.
func withScenario(desc string, es *harness.EpochStats) func(*harness.Cell) {
	return func(c *harness.Cell) {
		c.Scenario = desc
		c.EpochStats = es
	}
}

// TestEpochSectioning: scenario cells reconstruct into an EpochTable —
// anchored at the fault-free rung, never swallowed by the fault-ladder
// branch even though the faulted rungs carry adversary descriptors — and
// the section renders into the markdown.
func TestEpochSectioning(t *testing.T) {
	stats := func(amsgs float64) *harness.EpochStats {
		return &harness.EpochStats{
			ElectedRate:       1,
			AmortizedMessages: amsgs, AmortizedRounds: 4,
			MeanRecover:      4,
			PerEpochMessages: []float64{amsgs, amsgs, amsgs},
			PerEpochRounds:   []float64{4, 4, 4},
			PerEpochElected:  []int{8, 8, 8},
		}
	}
	const scenario = "epochs=3,fault=crash"
	a := harness.Artifact{Schema: harness.ArtifactSchema, Cells: []harness.Cell{
		synthCell("ire", "expander", 32, 1200, withScenario(scenario, stats(400))), // anchor
		synthCell("ire", "expander", 32, 600, withScenario(scenario, stats(200)),
			withAdversary("crash=0.1@8")),
		synthCell("ire", "expander", 32, 300, withScenario(scenario, stats(100)),
			withAdversary("adaptive=1@1")),
		synthCell("flood", "cycle", 16, 60, withAdversary("churn=0.3")), // plain fault cell
	}}
	r := New(a, Options{Title: "epoch synthetic"})

	if len(r.Epochs) != 1 {
		t.Fatalf("epoch tables: %+v", r.Epochs)
	}
	et := r.Epochs[0]
	if !et.HasAnchor || len(et.Rows) != 3 || et.Scenario != scenario {
		t.Fatalf("epoch table wrong: %+v", et)
	}
	if et.Protocol != "ire" || et.Family != "expander" || et.N != 32 {
		t.Fatalf("epoch table identity wrong: %+v", et)
	}
	// Anchor ratios are against the scenario anchor, not any fault anchor.
	if x := et.Rows[2].XMsgs; x != 0.25 {
		t.Fatalf("adaptive rung anchor ratio %v, want 0.25", x)
	}
	// The scenario cells must not leak into the fault sections: only the
	// plain churn cell sections as a (bare) fault ladder.
	if len(r.Faults) != 1 || r.Faults[0].Kinds != "churn" {
		t.Fatalf("faults wrong: %+v", r.Faults)
	}
	if len(r.Families) != 0 {
		t.Fatalf("scenario cells leaked into Table 1: %+v", r.Families)
	}

	md := r.Markdown()
	for _, want := range []string{
		"## Repeated elections — epoch scenarios",
		"### `ire` on expander, n = 32 — `epochs=3,fault=crash`",
		"| adversary | elected | amsgs | arounds | recover |",
		"`adaptive=1@1`",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestEpochSectionWithoutAnchor: a scenario sweep whose fault-free rung
// was filtered out still sections (no anchor ratios, noted in markdown).
func TestEpochSectionWithoutAnchor(t *testing.T) {
	a := harness.Artifact{Schema: harness.ArtifactSchema, Cells: []harness.Cell{
		synthCell("flood", "complete", 8, 500,
			withScenario("epochs=2,fault=revoke", &harness.EpochStats{}),
			withAdversary("adaptive=1@2")),
	}}
	r := New(a, Options{})
	if len(r.Epochs) != 1 || r.Epochs[0].HasAnchor || len(r.Epochs[0].Rows) != 1 {
		t.Fatalf("anchorless epoch table wrong: %+v", r.Epochs)
	}
	if len(r.Faults) != 0 {
		t.Fatalf("anchorless scenario cell sectioned as a fault ladder: %+v", r.Faults)
	}
	if r.Epochs[0].Rows[0].XMsgs != 0 {
		t.Fatal("anchorless row grew an anchor ratio")
	}
}
