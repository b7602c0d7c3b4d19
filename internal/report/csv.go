package report

import (
	"bytes"
	"encoding/csv"
	"strconv"

	"anonlead/internal/harness"
)

// csvHeader is the column layout of Report.CSV: one row per
// (cell, metric) in long ("tidy") form, section-tagged so dashboards can
// facet the Table-1, knowledge, and fault populations without re-deriving
// the sweep structure.
var csvHeader = []string{
	"section", "protocol", "family", "n", "presumed_n", "adversary", "profile_mode", "scenario",
	"metric", "value", "stddev", "predicted", "vs_pred", "x_anchor",
	"success_lo", "success_hi", "trend",
}

// csvMetrics names the per-row metrics exported per cell, in order.
var csvMetrics = []string{"messages", "bits", "rounds", "charged", "success_rate"}

// CSV renders the report flat: every cell of every section becomes five
// rows (one per metric), carrying the same derived columns the markdown
// tables show — predicted-vs-measured ratios on messages/rounds, anchor
// ratios in the anchored sections, Wilson bounds on the success rate, and
// (in series mode) the metric's trend verdict. Byte-deterministic.
func (r Report) CSV() (string, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(csvHeader); err != nil {
		return "", err
	}
	emit := func(section string, row Row) error {
		c := row.Cell
		for _, m := range csvMetrics {
			rec := csvRow{section: section, cell: c, metric: m, row: row}
			if t := r.trendFor(row, m); t != nil {
				rec.trend = string(t.Trend)
			}
			if err := w.Write(rec.fields()); err != nil {
				return err
			}
		}
		return nil
	}
	for _, ft := range r.Families {
		for _, row := range ft.Rows {
			if err := emit("table1", row); err != nil {
				return "", err
			}
		}
	}
	for _, kt := range r.Knowledge {
		for _, row := range kt.Rows {
			if err := emit("knowledge", row); err != nil {
				return "", err
			}
		}
	}
	for _, ft := range r.Faults {
		for _, row := range ft.Rows {
			if err := emit("faults", row); err != nil {
				return "", err
			}
		}
	}
	for _, et := range r.Epochs {
		for _, row := range et.Rows {
			if err := emit("epochs", row); err != nil {
				return "", err
			}
		}
	}
	w.Flush()
	return buf.String(), w.Error()
}

// csvRow assembles one exported record.
type csvRow struct {
	section string
	cell    harness.ArtifactCell
	metric  string
	row     Row
	trend   string
}

func (cr csvRow) fields() []string {
	c := cr.cell
	num := func(v float64) string {
		if v == 0 {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	var value, stddev, predicted, vsPred, xAnchor, lo, hi string
	switch cr.metric {
	case "messages":
		value = num(c.Messages)
		stddev = distStdDev(c.MessagesDist)
		predicted, vsPred = num(c.PredictedMsgs), num(cr.row.MsgsVsPred)
		xAnchor = num(cr.row.XMsgs)
	case "bits":
		value = num(c.Bits)
		stddev = distStdDev(c.BitsDist)
	case "rounds":
		value = num(c.Rounds)
		stddev = distStdDev(c.RoundsDist)
		predicted, vsPred = num(c.PredictedTime), num(cr.row.TimeVsPred)
		xAnchor = num(cr.row.XRounds)
	case "charged":
		value = num(c.Charged)
		stddev = distStdDev(c.ChargedDist)
	case "success_rate":
		if c.Trials > 0 {
			value = strconv.FormatFloat(float64(c.Successes)/float64(c.Trials), 'g', -1, 64)
		}
		lo = strconv.FormatFloat(cr.row.SuccessLo, 'g', -1, 64)
		hi = strconv.FormatFloat(cr.row.SuccessHi, 'g', -1, 64)
	}
	return []string{
		cr.section, c.Protocol, c.Family,
		strconv.Itoa(c.N), strconv.Itoa(c.PresumedN), c.Adversary, c.ProfileMode, c.Scenario,
		cr.metric, value, stddev, predicted, vsPred, xAnchor, lo, hi, cr.trend,
	}
}

func distStdDev(d *harness.ArtifactDist) string {
	if d == nil {
		return ""
	}
	return strconv.FormatFloat(d.StdDev, 'g', -1, 64)
}
