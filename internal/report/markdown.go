package report

import (
	"fmt"
	"strings"

	"anonlead/internal/spectral"
)

// Markdown renders the report as GitHub-flavored markdown, shaped the way
// the paper presents its evaluation: a Table-1 section per protocol×family
// with measured-vs-predicted columns, the knowledge ablation, the fault
// degradation ladders and the epoch scenario tables. Output is
// byte-deterministic for a given report.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n%s\n\n", r.Title, r.describe())

	if len(r.Families) > 0 {
		b.WriteString("## Table 1 — measured cost vs the paper's bounds\n\n")
		b.WriteString("Measured means over each cell's trials; `pred` columns evaluate the paper's\n" +
			"leading-term bound formulas on the measured graph profile (no polylog factors,\n" +
			"no constants), so the `/pred` ratios are calibration curves, not pass/fail\n" +
			"tests — what matters is that they stay flat as n grows.\n\n")
		for _, ft := range r.Families {
			b.WriteString(r.familyMarkdown(ft))
		}
	}
	if len(r.Knowledge) > 0 {
		b.WriteString("## Knowledge ablation — misreported network size (after Dieudonné–Pelc)\n\n")
		b.WriteString("The graph (and its true tmix, Φ) is fixed; only the size the protocol is\n" +
			"told changes. `×` columns compare against the truthful presumed n = n row.\n\n")
		for _, kt := range r.Knowledge {
			b.WriteString(r.knowledgeMarkdown(kt))
		}
	}
	if len(r.Faults) > 0 {
		b.WriteString("## Fault degradation — adversary ladders (vs fault-free anchor)\n\n")
		b.WriteString("Each ladder escalates one adversary on a fixed protocol×workload; `×` columns\n" +
			"are cost ratios against the fault-free anchor row.\n\n")
		for _, ft := range r.Faults {
			b.WriteString(r.faultMarkdown(ft))
		}
	}
	if len(r.Epochs) > 0 {
		b.WriteString("## Repeated elections — epoch scenarios\n\n")
		b.WriteString("Each sweep chains epochs of elect → lead → leader crashes or revokes →\n" +
			"re-elect on one persistent topology; rows escalate the adversary (static\n" +
			"schedule vs traffic-adaptive targeting of the busiest node). `amsgs`/`arounds`\n" +
			"are amortized per-epoch costs, `recover` the mean re-election rounds; `×`\n" +
			"columns compare scenario totals against the fault-free anchor row.\n\n")
		for _, et := range r.Epochs {
			b.WriteString(r.epochMarkdown(et))
		}
	}
	return b.String()
}

// epochMarkdown renders one repeated-election sweep.
func (r Report) epochMarkdown(et EpochTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### `%s` on %s, n = %d — `%s`\n\n", et.Key.Protocol, et.Key.Family, et.Key.N, et.Key.Scenario)
	b.WriteString("| adversary | elected | amsgs | arounds | recover | messages | ×msgs | success | 95% CI |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, row := range et.Rows {
		c := row.Cell
		desc := c.Adversary
		if desc == "" {
			desc = "none"
		}
		elected, amsgs, arounds, recover := "-", "-", "-", "-"
		if es := c.EpochStats; es != nil {
			elected = fmt.Sprintf("%.2f", es.ElectedRate)
			amsgs, arounds = Num(es.AmortizedMessages), Num(es.AmortizedRounds)
			recover = Num(es.MeanRecover)
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s | %s | %d/%d | %s |\n",
			desc, elected, amsgs, arounds, recover,
			Num(c.Messages), ratio(row.XMsgs), c.Successes, c.Trials, wilson(row))
	}
	b.WriteString("\n")
	if !et.HasAnchor {
		b.WriteString("> no fault-free anchor cell in this sweep; `×` columns unavailable.\n\n")
	}
	return b.String()
}

// familyMarkdown renders one Table-1 section.
func (r Report) familyMarkdown(ft FamilyTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### `%s` on %s\n\n", ft.Key.Protocol, ft.Key.Family)
	b.WriteString("| n | m | D | tmix | Φ | messages | pred msgs | msg/pred | rounds | pred time | time/pred | success | 95% CI |\n")
	b.WriteString("|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|\n")
	estimated := false
	for _, row := range ft.Rows {
		c := row.Cell
		tmix := fmt.Sprintf("%d", c.MixingTime)
		if c.N > spectral.MixingTimeExactLimit {
			// Estimate-regime cell: its size made ProfileGraph use the
			// streaming estimators for tmix/Φ/D.
			tmix += "\\*"
			estimated = true
		}
		fmt.Fprintf(&b, "| %d | %d | %d | %s | %s | %s | %s | %s | %s | %s | %s | %d/%d | %s |\n",
			c.N, c.M, c.Diameter, tmix, Num(c.Conductance),
			Num(c.Messages), Num(c.PredictedMsgs), ratio(c.MsgsVsPred()),
			Num(c.Rounds), Num(c.PredictedTime), ratio(c.TimeVsPred()),
			c.Successes, c.Trials, wilson(row))
	}
	b.WriteString("\n")
	if estimated {
		b.WriteString("\\* estimate-regime profile: tmix, Φ and D are streaming estimates\n" +
			"(D a double-BFS lower bound), not dense-matrix exact values.\n\n")
	}
	if ft.MsgExponentR2 > 0 {
		fmt.Fprintf(&b, "Empirical scaling: messages ~ n^%.2f (R² = %.3f).\n\n", ft.MsgExponent, ft.MsgExponentR2)
	}
	return b.String()
}

// knowledgeMarkdown renders one knowledge-ablation section.
func (r Report) knowledgeMarkdown(kt KnowledgeTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### `%s` on %s, n = %d\n\n", kt.Key.Protocol, kt.Key.Family, kt.Key.N)
	b.WriteString("| presumed n | ×n | messages | ×msgs | rounds | ×rounds | success | 95% CI |\n")
	b.WriteString("|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, row := range kt.Rows {
		c := row.Cell
		fmt.Fprintf(&b, "| %d | %s | %s | %s | %s | %s | %d/%d | %s |\n",
			c.PresumedN, Num(knowledgeFactor(c)),
			Num(c.Messages), ratio(row.XMsgs),
			Num(c.Rounds), ratio(row.XRounds),
			c.Successes, c.Trials, wilson(row))
	}
	b.WriteString("\n")
	if !kt.HasAnchor {
		b.WriteString("> no truthful presumed n = n cell in this sweep; `×` columns unavailable.\n\n")
	}
	return b.String()
}

// faultMarkdown renders one fault-degradation ladder.
func (r Report) faultMarkdown(ft FaultTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### `%s` on %s, n = %d — %s ladder\n\n", ft.Key.Protocol, ft.Key.Family, ft.Key.N, ft.Kinds)
	b.WriteString("| adversary | messages | ×msgs | rounds | ×rounds | dropped | crashed | success | 95% CI |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, row := range ft.Rows {
		c := row.Cell
		desc := c.Adversary
		if desc == "" {
			desc = "none"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s | %s | %d/%d | %s |\n",
			desc, Num(c.Messages), ratio(row.XMsgs), Num(c.Rounds), ratio(row.XRounds),
			Num(c.Dropped), Num(c.CrashedNodes), c.Successes, c.Trials, wilson(row))
	}
	b.WriteString("\n")
	if !ft.HasAnchor {
		b.WriteString("> no fault-free anchor cell in this ladder; `×` columns unavailable.\n\n")
	}
	return b.String()
}

// Num renders a measured value compactly and deterministically: integers
// bare, large/small values in scientific form, everything else with four
// significant digits. internal/trajectory renders its deltas' values with
// it too.
func Num(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e7 || v < 1e-2:
		return fmt.Sprintf("%.3g", v)
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// ratio renders an anchored or predicted ratio ("-" when unavailable).
func ratio(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// wilson renders a row's Wilson success interval.
func wilson(r Row) string { return interval(r.SuccessLo, r.SuccessHi) }

// interval renders a ~95% interval as the "95% CI" columns print it.
func interval(lo, hi float64) string { return fmt.Sprintf("[%.3f, %.3f]", lo, hi) }
