// Package trajectory compares two bench artifacts: it aligns the sweep
// cells of a base and a head BENCH_harness.json by workload identity and
// marks every aligned cell whose content differs in any field as changed.
// Each changed cell names the fields that differ, with both values.
// cmd/benchdiff is the CLI. A longer history is a sequence of such pairs
// (the committed baseline's git log; any two archived artifacts);
// rendering a single artifact is internal/report's job.
//
// The paper's guarantees are w.h.p. statements over seeds, but a sweep is
// a pure function of its plan and root seed: two runs of one plan agree
// cell for cell, so a comparison of two runs needs no noise model, and
// any difference is a change. Trial variance belongs to the conformance
// bands, not here. Each aligned cell also gets a per-metric comparison —
// cost up is regressed, down improved, and a measured/predicted ratio that
// moved more than 25 % drifted — which explains a change but is not the
// verdict.
package trajectory

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"anonlead/internal/harness"
)

// Status classifies one metric of one aligned cell.
type Status string

// The classifications. For cost metrics lower is better; for the success
// rate higher is better — Regressed always means "got worse". Drifted is
// reserved for the predicted-vs-measured ratio metrics: the measurement
// moved away from (or toward) the paper's bound relative to the baseline
// by more than the drift tolerance, in either direction.
const (
	Improved  Status = "improved"
	Unchanged Status = "unchanged"
	Regressed Status = "regressed"
	Drifted   Status = "drifted"
)

// Thresholds is an inert shim: a cell that changed at all is a change,
// so there is nothing left to tune.
//
// Deprecated: Diff ignores its Thresholds argument. The last caller is
// bench/, and ROADMAP item 3 removes it.
type Thresholds struct{}

// driftTol is the relative change of a measured/predicted ratio between
// base and head that marks the ratio Drifted. Both artifacts persist the
// paper-bound predictions per cell, so the explanation can say a cell
// walked away from its complexity bound, not just that its cost moved.
const driftTol = 0.25

// MetricDiff is the comparison of one metric on one aligned cell.
type MetricDiff struct {
	Metric string `json:"metric"`
	// Base and Head are the per-trial means (or rates for success_rate).
	Base float64 `json:"base"`
	Head float64 `json:"head"`
	// RelDelta is (head-base)/|base|. When base is 0 it stays 0 (JSON has
	// no Inf) and Status alone carries the verdict.
	RelDelta float64 `json:"rel_delta"`
	Status   Status  `json:"status"`
}

// CellDiff is one aligned cell's comparison across all metrics.
type CellDiff struct {
	Key     harness.CellKey `json:"key"`
	Metrics []MetricDiff    `json:"metrics"`
}

// CellChange is a changed cell and the leaves of its encoding that differ.
type CellChange struct {
	Key    harness.CellKey `json:"key"`
	Fields []FieldDiff     `json:"fields"`
}

// FieldDiff is one differing leaf: its dotted path (array elements by
// index, e.g. "messages_dist.p90") and its JSON text in base and head, or
// "absent" on the side that lacks it.
type FieldDiff struct {
	Path string `json:"path"`
	Base string `json:"base"`
	Head string `json:"head"`
}

// Report is the full artifact comparison.
type Report struct {
	BaseSchema string     `json:"base_schema"`
	HeadSchema string     `json:"head_schema"`
	Cells      []CellDiff `json:"cells"`
	// Changed lists the aligned cells whose JSON encoding differs between
	// base and head in any field, with those fields. The gate sweep is a
	// pure function of (plan, root seed), so any entry here — or in Added
	// or Removed — is a change to what the model measured.
	Changed []CellChange `json:"changed,omitempty"`
	// Added and Removed list cells present in only one artifact. A shrunk
	// sweep can hide a change, so both count against Clean.
	Added   []harness.CellKey `json:"added,omitempty"`
	Removed []harness.CellKey `json:"removed,omitempty"`

	// The per-metric counts explain a change; Clean is the verdict.
	Improved  int `json:"improved"`
	Unchanged int `json:"unchanged"`
	Regressed int `json:"regressed"`
	// Drifted counts predicted-vs-measured ratio metrics that moved
	// beyond 25 % between base and head.
	Drifted int `json:"drifted"`
}

// Clean reports whether every aligned cell is identical and no cell was
// added or removed.
func (r Report) Clean() bool {
	return len(r.Changed)+len(r.Added)+len(r.Removed) == 0
}

// JSON renders the report machine-readably.
func (r Report) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("trajectory: marshal report: %w", err)
	}
	return append(buf, '\n'), nil
}

// costMetrics pairs each lower-is-better metric with its per-trial mean,
// in report order.
var costMetrics = []struct {
	name string
	mean func(harness.Cell) float64
}{
	{"messages", func(c harness.Cell) float64 { return c.Messages }},
	{"bits", func(c harness.Cell) float64 { return c.Bits }},
	{"rounds", func(c harness.Cell) float64 { return c.Rounds }},
	{"charged", func(c harness.Cell) float64 { return c.Charged }},
}

// compare classifies one metric exactly: any move is a change. For a
// lower-is-better metric a rise is Regressed; for the success rate
// (higherBetter) it is Improved.
func compare(metric string, base, head float64, higherBetter bool) MetricDiff {
	d := MetricDiff{Metric: metric, Base: base, Head: head, Status: Unchanged}
	if base != 0 {
		d.RelDelta = (head - base) / math.Abs(base)
	}
	switch {
	case head == base:
	case (head > base) != higherBetter:
		d.Status = Regressed
	default:
		d.Status = Improved
	}
	return d
}

// driftMetrics names each measured/predicted ratio of a cell: the paper's
// message bound against mean messages, its time bound against mean rounds.
var driftMetrics = []struct {
	name  string
	ratio func(harness.Cell) float64
}{
	{"msgs_vs_pred", harness.Cell.MsgsVsPred},
	{"time_vs_pred", harness.Cell.TimeVsPred},
}

// classifyDrift compares one measured/predicted ratio between base and
// head. A cell whose ratio moves by more than driftTol relative to its
// baseline ratio is Drifted — the measurement walked away from (or
// toward) the paper's bound, a different signal than a raw cost change.
// Returns ok=false when either ratio is 0 (undefined: no usable
// prediction or measurement), in which case no metric is emitted.
func classifyDrift(name string, baseRatio, headRatio float64) (MetricDiff, bool) {
	if baseRatio <= 0 || headRatio <= 0 {
		return MetricDiff{}, false
	}
	d := MetricDiff{Metric: name, Base: baseRatio, Head: headRatio, Status: Unchanged}
	d.RelDelta = (headRatio - baseRatio) / baseRatio
	if math.Abs(d.RelDelta) > driftTol {
		d.Status = Drifted
	}
	return d, true
}

// cellChange compares two cells' JSON encodings, so an in-memory cell
// equals its decoded copy (a nil slice may come back empty). Only a changed
// cell is decoded again, to name its differing leaves.
func cellChange(base, head harness.Cell) (fields []FieldDiff, changed bool) {
	eb, errB := json.Marshal(base)
	eh, errH := json.Marshal(head)
	if errB != nil || errH != nil {
		return nil, true
	}
	if bytes.Equal(eb, eh) {
		return nil, false
	}
	b, h := leaves(eb), leaves(eh)
	for p, hv := range h {
		if bv, ok := b[p]; !ok {
			fields = append(fields, FieldDiff{p, "absent", hv})
		} else if bv != hv {
			fields = append(fields, FieldDiff{p, bv, hv})
		}
	}
	for p, bv := range b {
		if _, ok := h[p]; !ok {
			fields = append(fields, FieldDiff{p, bv, "absent"})
		}
	}
	slices.SortFunc(fields, func(x, y FieldDiff) int { return strings.Compare(x.Path, y.Path) })
	return fields, true
}

// leaves maps each leaf of an encoded cell to its JSON text by dotted path.
func leaves(buf []byte) map[string]string {
	d := json.NewDecoder(bytes.NewReader(buf))
	d.UseNumber() // numbers keep their encoded text
	var tree any
	if err := d.Decode(&tree); err != nil {
		return nil // unreachable: buf is json.Marshal's output
	}
	out := map[string]string{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(path+"."+k, e)
			}
		case []any:
			for i, e := range v {
				walk(path+"."+strconv.Itoa(i), e)
			}
		default:
			text, _ := json.Marshal(v)
			out[path[1:]] = string(text) // a cell is an object: path is never empty
		}
	}
	walk("", tree)
	return out
}

// Diff aligns the cells of two artifacts by their Key, marks every aligned
// cell whose encoding differs as changed, and compares every metric.
// Aligned cells keep base order; duplicates of a key pair up by occurrence index,
// with unpaired occurrences reported as added/removed. The Thresholds
// argument is ignored.
func Diff(base, head harness.Artifact, _ Thresholds) Report {
	r := Report{BaseSchema: base.Schema, HeadSchema: head.Schema}

	headIdx := make(map[harness.CellKey][]int, len(head.Cells))
	for i, c := range head.Cells {
		k := c.Key()
		headIdx[k] = append(headIdx[k], i)
	}
	matchedHead := make([]bool, len(head.Cells))
	taken := make(map[harness.CellKey]int, len(headIdx))

	for _, bc := range base.Cells {
		k := bc.Key()
		idxs := headIdx[k]
		if taken[k] >= len(idxs) {
			r.Removed = append(r.Removed, k)
			continue
		}
		hc := head.Cells[idxs[taken[k]]]
		matchedHead[idxs[taken[k]]] = true
		taken[k]++

		if fields, changed := cellChange(bc, hc); changed {
			r.Changed = append(r.Changed, CellChange{Key: k, Fields: fields})
		}
		cd := CellDiff{Key: k}
		for _, m := range costMetrics {
			cd.Metrics = append(cd.Metrics, compare(m.name, m.mean(bc), m.mean(hc), false))
		}
		cd.Metrics = append(cd.Metrics, compare("success_rate", bc.SuccessRate(), hc.SuccessRate(), true))
		for _, dm := range driftMetrics {
			if md, ok := classifyDrift(dm.name, dm.ratio(bc), dm.ratio(hc)); ok {
				cd.Metrics = append(cd.Metrics, md)
			}
		}
		for _, md := range cd.Metrics {
			switch md.Status {
			case Improved:
				r.Improved++
			case Regressed:
				r.Regressed++
			case Drifted:
				r.Drifted++
			default:
				r.Unchanged++
			}
		}
		r.Cells = append(r.Cells, cd)
	}
	for i, hc := range head.Cells {
		if !matchedHead[i] {
			r.Added = append(r.Added, hc.Key())
		}
	}
	return r
}

// DiffFiles loads two artifact files and diffs them.
func DiffFiles(basePath, headPath string) (Report, error) {
	base, err := harness.ReadArtifactFile(basePath)
	if err != nil {
		return Report{}, err
	}
	head, err := harness.ReadArtifactFile(headPath)
	if err != nil {
		return Report{}, err
	}
	return Diff(base, head, Thresholds{}), nil
}
