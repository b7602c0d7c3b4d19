package report

import (
	"fmt"
	"strings"

	"anonlead/internal/obs"
)

// PhaseMarkdown renders the phase-breakdown table from an obs metrics
// snapshot (the -metrics-out file of lebench): one row per span
// phase with count, total, mean and share of the summed phase time,
// sorted by descending total. Phase timings are wall-clock telemetry, so
// this section is opt-in (lereport -phases) and never part of the
// byte-deterministic baseline report.
func PhaseMarkdown(stats []obs.PhaseStat) string {
	if len(stats) == 0 {
		return ""
	}
	var sum float64
	for _, s := range stats {
		sum += s.Total
	}
	var b strings.Builder
	b.WriteString("## Phase breakdown — where the run spent its time\n\n")
	b.WriteString("Wall-clock totals per instrumented phase span (prepare = graph build,\n" +
		"profile = spectral profile, trials = protocol runs, reduce = cell\n" +
		"aggregation). Spans on different pool workers overlap, so shares are of\n" +
		"the summed span time, not of the run.\n\n")
	b.WriteString("| phase | spans | total s | mean s | share |\n")
	b.WriteString("|---|---:|---:|---:|---:|\n")
	for _, s := range stats {
		mean := 0.0
		if s.Spans > 0 {
			mean = s.Total / float64(s.Spans)
		}
		share := 0.0
		if sum > 0 {
			share = 100 * s.Total / sum
		}
		fmt.Fprintf(&b, "| %s | %d | %.3f | %.4f | %.1f%% |\n",
			s.Phase, s.Spans, s.Total, mean, share)
	}
	b.WriteString("\n")
	return b.String()
}
