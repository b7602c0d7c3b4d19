package report

import (
	"fmt"
	"strings"

	"anonlead/internal/harness"
	"anonlead/internal/spectral"
	"anonlead/internal/stats"
)

// The series renderers: the experiments that produce points rather than
// artifact cells (Figures 1–2 and the X1–X3 lemma ablations) print one
// markdown table each, in the report's number formats — values through
// Num, ratios through ratio, every Wilson interval in one "95% CI" column.

// SplitBrainMarkdown renders the Figures 1–2 pumping-wheel series: IRE told
// it runs on C_n, executed on wheels C_N with a growing number of planted
// witnesses.
func SplitBrainMarkdown(presumedN int, points []harness.SplitBrainPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Figures 1–2 — pumping wheel, IRE presuming n = %d on C_N\n\n", presumedN)
	b.WriteString("`P(multi)` is the share of trials electing more than one leader; `split cores`\n" +
		"counts trials with a witness split-brained in both segments, `zero` trials\n" +
		"electing nobody.\n\n")
	b.WriteString("| witnesses | N | T(n) | P(multi) | 95% CI | E[leaders] | split cores | zero |\n")
	b.WriteString("|---:|---:|---:|---:|---|---:|---:|---:|\n")
	for _, pt := range points {
		fmt.Fprintf(&b, "| %d | %d | %d | %s | %s | %s | %d | %d |\n",
			pt.Layout.Witnesses, pt.Layout.WheelN, pt.Layout.T,
			Num(float64(pt.MultiLeader)/float64(pt.Trials)), interval(stats.Wilson(pt.MultiLeader, pt.Trials)),
			Num(pt.MeanLeaders), pt.SplitCores, pt.ZeroLeader)
	}
	b.WriteString("\n")
	return b.String()
}

// CautiousMarkdown renders the X1 series: cautious-broadcast territories
// and messages against Lemma 1's cap and message bound, one row per walk
// count x.
func CautiousMarkdown(w harness.Workload, prof *spectral.Profile, points []harness.CautiousPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## X1 (Lemma 1) — cautious broadcast on %s, n = %d (tmix = %d, Φ = %s)\n\n",
		w.Family, w.N, prof.MixingTime, Num(prof.Conductance))
	b.WriteString("Territories are the candidates' confirmed counts; `pred msgs` is x·tmix per\n" +
		"candidate times the mean candidate count.\n\n")
	b.WriteString("| x | cap x·tmix·Φ | mean territory | max territory | candidates | messages | pred msgs | msg/pred |\n")
	b.WriteString("|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, p := range points {
		r := 0.0
		if p.PredictedMsgs > 0 {
			r = p.Messages / p.PredictedMsgs
		}
		fmt.Fprintf(&b, "| %d | %d | %s | %d | %s | %s | %s | %s |\n",
			p.X, p.CapSize, Num(p.MeanTerritory), p.MaxTerritory,
			Num(p.Candidates), Num(p.Messages), Num(p.PredictedMsgs), ratio(r))
	}
	b.WriteString("\n")
	return b.String()
}

// WalksMarkdown renders the X2 series: the full protocol's election success
// as the walk count is scaled away from the paper's x (factor 1).
func WalksMarkdown(w harness.Workload, points []harness.WalkPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## X2 (Lemma 2) — walk-count sweep on %s, n = %d (the paper's x at factor 1)\n\n", w.Family, w.N)
	b.WriteString("| factor | x | success | rate | 95% CI | messages |\n")
	b.WriteString("|---:|---:|---:|---:|---|---:|\n")
	for _, p := range points {
		c := p.Cell
		fmt.Fprintf(&b, "| %s | %d | %d/%d | %s | %s | %s |\n",
			Num(p.Factor), p.X, c.Successes, c.Trials, Num(c.SuccessRate()), wilson(newRow(c)), Num(c.Messages))
	}
	b.WriteString("\n")
	return b.String()
}

// DiffusionMarkdown renders the X3 series: the exactly evolved diffusion
// phase per estimate k, and whether the τ(k) threshold alarm fires.
func DiffusionMarkdown(w harness.Workload, points []harness.DiffusionPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## X3 (Lemmas 5–8) — diffusion threshold detector on %s, n = %d\n\n", w.Family, w.N)
	b.WriteString("Lemma 5: in the low-k regime (k^(1+ε) < 2n+1) an alarm is allowed; outside it,\n" +
		"with a white node present, the maximum potential stays at or below τ(k).\n\n")
	b.WriteString("| k | k^(1+ε) | r(k) | whites | max potential | τ(k) | alarm | low-k regime |\n")
	b.WriteString("|---:|---:|---:|---:|---:|---:|---|---|\n")
	for _, p := range points {
		fmt.Fprintf(&b, "| %d | %s | %d | %d | %s | %s | %t | %t |\n",
			p.K, Num(p.KPow), p.Rounds, p.Whites, Num(p.MaxPot), Num(p.Tau), p.AlarmFired, p.TheoryLow)
	}
	b.WriteString("\n")
	return b.String()
}
