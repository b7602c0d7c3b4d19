package trajectory

import (
	"bytes"
	"encoding/csv"
	"strconv"
)

// csvHeader is the column layout of Report.CSV: one row per (aligned cell,
// metric), plus one row per added/removed cell with a blank metric.
var csvHeader = []string{
	"protocol", "family", "n", "presumed_n", "adversary", "profile_mode", "scenario",
	"metric", "base", "head", "rel_delta", "stderr", "status",
}

// CSV renders the report flat for spreadsheets and dashboards: every
// aligned metric (changed or not, drift ratios included) becomes one row
// keyed by the cell's identity columns. Added and removed cells appear as
// rows with an empty metric column and status "added"/"removed", so
// coverage changes survive the export too.
func (r Report) CSV() (string, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(csvHeader); err != nil {
		return "", err
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	keyCols := func(k Key) []string {
		return []string{k.Protocol, k.Family, strconv.Itoa(k.N), strconv.Itoa(k.PresumedN), k.Adversary,
			k.ProfileMode, k.Scenario}
	}
	for _, cd := range r.Cells {
		for _, md := range cd.Metrics {
			row := append(keyCols(cd.Key),
				md.Metric, num(md.Base), num(md.Head), num(md.RelDelta), num(md.StdErr), string(md.Status))
			if err := w.Write(row); err != nil {
				return "", err
			}
		}
	}
	for _, k := range r.Added {
		if err := w.Write(append(keyCols(k), "", "", "", "", "", "added")); err != nil {
			return "", err
		}
	}
	for _, k := range r.Removed {
		if err := w.Write(append(keyCols(k), "", "", "", "", "", "removed")); err != nil {
			return "", err
		}
	}
	w.Flush()
	return buf.String(), w.Error()
}
