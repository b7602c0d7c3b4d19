package trajectory

import (
	"fmt"
	"strings"

	"anonlead/internal/harness"
)

// Markdown renders the report as a GitHub-flavored summary: the verdict
// counts, the changed cells with their differing fields, and the removed
// and added cell lists. CI appends it to $GITHUB_STEP_SUMMARY; it is also
// benchdiff's stdout.
func (r Report) Markdown() string {
	var b strings.Builder
	b.WriteString("## benchdiff\n\n")
	fmt.Fprintf(&b, "base `%s` · head `%s`\n\n", r.BaseSchema, r.HeadSchema)
	fmt.Fprintf(&b, "**%d changed of %d aligned cells** · %d added · %d removed\n\n",
		len(r.Changed), r.Aligned, len(r.Added), len(r.Removed))
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
