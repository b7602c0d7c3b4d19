package trajectory

import (
	"fmt"
	"math"
	"strings"

	"anonlead/internal/report"
)

// Markdown renders the report as a GitHub-flavored summary: headline
// counts, a table of every changed metric, and the added/removed cell lists. CI
// appends it to $GITHUB_STEP_SUMMARY; it is also benchdiff's stdout.
func (r Report) Markdown() string {
	var b strings.Builder
	b.WriteString("## benchdiff\n\n")
	fmt.Fprintf(&b, "base `%s` · head `%s`\n\n", r.BaseSchema, r.HeadSchema)
	fmt.Fprintf(&b, "**%d regressed · %d improved · %d drifted · %d unchanged** across %d aligned cells",
		r.Regressed, r.Improved, r.Drifted, r.Unchanged, len(r.Cells))
	if len(r.Added) > 0 || len(r.Removed) > 0 {
		fmt.Fprintf(&b, " (+%d added, −%d removed)", len(r.Added), len(r.Removed))
	}
	b.WriteString("\n\n")

	changed := false
	for _, cd := range r.Cells {
		for _, md := range cd.Metrics {
			if md.Status != Unchanged {
				changed = true
			}
		}
	}
	if changed {
		b.WriteString("| cell | metric | base | head | Δ | effect | status |\n")
		b.WriteString("|---|---|---:|---:|---:|---:|---|\n")
		for _, cd := range r.Cells {
			for _, md := range cd.Metrics {
				if md.Status == Unchanged {
					continue
				}
				fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s %s |\n",
					cd.Key, md.Metric, report.Num(md.Base), report.Num(md.Head),
					fmtDelta(md), fmtEffect(md), statusIcon(md.Status), md.Status)
			}
		}
		b.WriteString("\n")
	} else if len(r.Cells) > 0 {
		b.WriteString("All aligned metrics within thresholds.\n\n")
	}

	if len(r.Removed) > 0 {
		b.WriteString("**Removed cells** (in base only — a shrunk sweep can hide regressions):\n")
		for _, k := range r.Removed {
			fmt.Fprintf(&b, "- %s\n", k)
		}
		b.WriteString("\n")
	}
	if len(r.Added) > 0 {
		b.WriteString("**Added cells** (in head only, no baseline to compare):\n")
		for _, k := range r.Added {
			fmt.Fprintf(&b, "- %s\n", k)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "Thresholds (fixed): %.3g %% relative, %.3gσ, %.3g %% drift.\n",
		100*r.Thresholds.RelTol, r.Thresholds.Sigmas, 100*r.Thresholds.DriftTol)
	return b.String()
}

// fmtDelta renders the relative change. A metric appearing from a zero
// base has no finite relative delta (RelDelta stays 0 in the report);
// rendering that as "+0.0%" would contradict the flagged status.
func fmtDelta(md MetricDiff) string {
	if md.Base == 0 && md.Head != 0 {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*md.RelDelta)
}

// fmtEffect renders the effect size in standard errors.
func fmtEffect(md MetricDiff) string {
	if md.Metric == "success_rate" {
		return "Wilson"
	}
	if md.Metric == "msgs_vs_pred" || md.Metric == "time_vs_pred" {
		return "ratio" // measured/predicted, not a raw mean
	}
	if md.StdErr == 0 {
		return "—" // zero-spread samples
	}
	return fmt.Sprintf("%.1fσ", math.Abs(md.Head-md.Base)/md.StdErr)
}

func statusIcon(s Status) string {
	switch s {
	case Regressed:
		return "🔴"
	case Improved:
		return "🟢"
	case Drifted:
		return "🟠"
	default:
		return "⚪"
	}
}
