package trajectory

import (
	"fmt"
	"strings"

	"anonlead/internal/harness"
	"anonlead/internal/report"
)

// Markdown renders the report as a GitHub-flavored summary: the verdict
// counts, a table of every metric that moved, the changed cells with their
// differing fields, and the removed and added cell lists. CI appends it to
// $GITHUB_STEP_SUMMARY; it is also benchdiff's stdout.
func (r Report) Markdown() string {
	var b strings.Builder
	b.WriteString("## benchdiff\n\n")
	fmt.Fprintf(&b, "base `%s` · head `%s`\n\n", r.BaseSchema, r.HeadSchema)
	fmt.Fprintf(&b, "**%d changed of %d aligned cells** · %d added · %d removed\n\n",
		len(r.Changed), len(r.Cells), len(r.Added), len(r.Removed))
	fmt.Fprintf(&b, "Per metric: %d regressed · %d improved · %d drifted · %d unchanged.\n\n",
		r.Regressed, r.Improved, r.Drifted, r.Unchanged)

	if r.Regressed+r.Improved+r.Drifted > 0 {
		b.WriteString("| cell | metric | base | head | Δ | status |\n")
		b.WriteString("|---|---|---:|---:|---:|---|\n")
		for _, cd := range r.Cells {
			for _, md := range cd.Metrics {
				if md.Status == Unchanged {
					continue
				}
				fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s %s |\n",
					cd.Key, md.Metric, report.Num(md.Base), report.Num(md.Head),
					fmtDelta(md), statusIcon(md.Status), md.Status)
			}
		}
		b.WriteString("\n")
	}

	if len(r.Changed) > 0 {
		b.WriteString("**Changed cells** (some field differs from the base):\n")
		for _, c := range r.Changed {
			fmt.Fprintf(&b, "- %s\n", c.Key)
			for _, f := range c.Fields {
				fmt.Fprintf(&b, "  - %s: %s → %s\n", f.Path, f.Base, f.Head)
			}
		}
		b.WriteString("\n")
	}
	for _, l := range []struct {
		title string
		keys  []harness.CellKey
	}{
		{"**Removed cells** (in base only — a shrunk sweep can hide a change):", r.Removed},
		{"**Added cells** (in head only, no baseline to compare):", r.Added},
	} {
		if len(l.keys) == 0 {
			continue
		}
		b.WriteString(l.title + "\n")
		for _, k := range l.keys {
			fmt.Fprintf(&b, "- %s\n", k)
		}
		b.WriteString("\n")
	}
	if r.Clean() {
		b.WriteString("Every aligned cell is identical.\n")
	} else {
		b.WriteString("`make baseline` accepts an intended change.\n")
	}
	return b.String()
}

// fmtDelta renders the relative change. A metric appearing from a zero
// base has no finite relative delta (RelDelta stays 0 in the report);
// rendering that as "+0.0%" would contradict the flagged status.
func fmtDelta(md MetricDiff) string {
	if md.Base == 0 && md.Head != 0 {
		return "new"
	}
	return fmt.Sprintf("%+.3g%%", 100*md.RelDelta)
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
