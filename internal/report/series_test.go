package report

import (
	"strings"
	"testing"

	"anonlead/internal/harness"
	"anonlead/internal/pumping"
	"anonlead/internal/spectral"
)

// TestSeriesMarkdown renders each series from synthetic points and checks
// its heading and its rows whole: numbers print in the report's formats —
// Num for values, ratio for ratios ("-" without a prediction), one
// "95% CI" column.
func TestSeriesMarkdown(t *testing.T) {
	w := harness.Workload{Family: "expander", N: 64}
	walk := synthCell("ire", "expander", 64, 4189.25)
	walk.Successes, walk.Trials = 3, 4
	for _, c := range []struct {
		name, out, heading string
		rows               []string
	}{{
		name: "figures",
		out: SplitBrainMarkdown(12, []harness.SplitBrainPoint{{
			Layout: pumping.Layout{PresumedN: 12, T: 319, Witnesses: 2, WheelN: 2600},
			Trials: 8, MultiLeader: 6, MeanLeaders: 8.875, SplitCores: 1, ZeroLeader: 2,
		}}),
		heading: "## Figures 1–2 — pumping wheel, IRE presuming n = 12 on C_N",
		rows:    []string{"| 2 | 2600 | 319 | 0.75 | [0.409, 0.929] | 8.875 | 1 | 2 |"},
	}, {
		name: "X1",
		out: CautiousMarkdown(w, &spectral.Profile{MixingTime: 15, Conductance: 0.24444}, []harness.CautiousPoint{
			{X: 4, CapSize: 15, MeanTerritory: 10, MaxTerritory: 11, Messages: 763.75, PredictedMsgs: 495, Candidates: 8.25},
			{X: 1, CapSize: 4, MeanTerritory: 2, MaxTerritory: 2},
		}),
		heading: "## X1 (Lemma 1) — cautious broadcast on expander, n = 64 (tmix = 15, Φ = 0.2444)",
		rows:    []string{"| 4 | 15 | 10 | 11 | 8.25 | 763.8 | 495 | 1.54 |", "| 1 | 4 | 2 | 2 | 0 | 0 | 0 | - |"},
	}, {
		name:    "X2",
		out:     WalksMarkdown(w, []harness.WalkPoint{{Factor: 0.5, X: 5, Cell: walk}}),
		heading: "## X2 (Lemma 2) — walk-count sweep on expander, n = 64 (the paper's x at factor 1)",
		rows:    []string{"| 0.5 | 5 | 3/4 | 0.75 | [0.301, 0.954] | 4189.2 |"},
	}, {
		name: "X3",
		out: DiffusionMarkdown(harness.Workload{Family: "cycle", N: 16}, []harness.DiffusionPoint{
			{K: 2, KPow: 2.8284271, Rounds: 2134, Whites: 2, MaxPot: 0.875, Tau: 0.453125, AlarmFired: true, TheoryLow: true},
			{K: 64, KPow: 512, Rounds: 2000000, Whites: 1, MaxPot: 0.9375, Tau: 0.998},
		}),
		heading: "## X3 (Lemmas 5–8) — diffusion threshold detector on cycle, n = 16",
		rows: []string{
			"| 2 | 2.828 | 2134 | 2 | 0.875 | 0.4531 | true | true |",
			"| 64 | 512 | 2000000 | 1 | 0.9375 | 0.998 | false | false |",
		},
	}} {
		if !strings.HasPrefix(c.out, c.heading+"\n") {
			t.Errorf("%s: heading is not %q:\n%s", c.name, c.heading, c.out)
		}
		for _, row := range c.rows {
			if !strings.Contains(c.out, "\n"+row+"\n") {
				t.Errorf("%s: no row %q in:\n%s", c.name, row, c.out)
			}
		}
	}
}
