// Package trajectory compares two bench artifacts: it aligns the sweep
// cells of a base and a head BENCH_harness.json by workload identity and
// marks every aligned cell whose content differs in any field as changed.
// Each changed cell names the leaves of its encoding that differ, by
// dotted path with both values. cmd/benchdiff is the CLI. A longer
// history is a sequence of such pairs (the committed baseline's git log;
// any two archived artifacts); rendering a single artifact is
// internal/report's job.
//
// The paper's guarantees are w.h.p. statements over seeds, but a sweep is
// a pure function of its plan and root seed: two runs of one plan agree
// cell for cell, so a comparison of two runs needs no noise model, and
// any difference is a change. Trial variance belongs to the conformance
// bands, not here.
package trajectory

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"anonlead/internal/harness"
)

// Deprecated: Thresholds is an inert shim that Diff ignores (a cell that
// changed at all is a change, so there is nothing to tune). The last
// caller is bench/, and ROADMAP item 3 removes it.
type Thresholds struct{}

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
	BaseSchema string `json:"base_schema"`
	HeadSchema string `json:"head_schema"`
	// Aligned counts the cells present in both artifacts.
	Aligned int `json:"aligned"`
	// Changed lists the aligned cells whose JSON encoding differs between
	// base and head in any field, with those fields. The gate sweep is a
	// pure function of (plan, root seed), so any entry here — or in Added
	// or Removed — is a change to what the model measured.
	Changed []CellChange `json:"changed,omitempty"`
	// Added and Removed list cells present in only one artifact. A shrunk
	// sweep can hide a change, so both count against Clean.
	Added   []harness.CellKey `json:"added,omitempty"`
	Removed []harness.CellKey `json:"removed,omitempty"`

	// Deprecated: Regressed is len(Changed), and Improved and Drifted are
	// always 0. They stay, unencoded, for bench/'s self-diff check until
	// ROADMAP item 3 has it read Clean.
	Improved, Regressed, Drifted int `json:"-"`
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

// Diff aligns the cells of two artifacts by their Key and marks every
// aligned cell whose encoding differs as changed. Changed cells keep base
// order; duplicates of a key pair up by occurrence index, with unpaired
// occurrences reported as added/removed.
func Diff(base, head harness.Artifact, _ ...Thresholds) Report {
	r := Report{BaseSchema: base.Schema, HeadSchema: head.Schema}

	headIdx := make(map[harness.CellKey][]int, len(head.Cells))
	for i, c := range head.Cells {
		k := c.Key()
		headIdx[k] = append(headIdx[k], i)
	}
	matchedHead := make([]bool, len(head.Cells))
	for _, bc := range base.Cells {
		k := bc.Key()
		idxs := headIdx[k]
		if len(idxs) == 0 {
			r.Removed = append(r.Removed, k)
			continue
		}
		j := idxs[0]
		headIdx[k] = idxs[1:]
		matchedHead[j] = true
		r.Aligned++
		if fields, changed := cellChange(bc, head.Cells[j]); changed {
			r.Changed = append(r.Changed, CellChange{Key: k, Fields: fields})
		}
	}
	for i, hc := range head.Cells {
		if !matchedHead[i] {
			r.Added = append(r.Added, hc.Key())
		}
	}
	r.Regressed = len(r.Changed)
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
	return Diff(base, head), nil
}
