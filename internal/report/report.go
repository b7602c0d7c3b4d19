// Package report turns bench artifacts into the reproduction report the
// paper's evaluation section would print: Table-1-shaped measured-vs-
// predicted tables per protocol×family, the Dieudonné–Pelc knowledge-
// ablation comparison, fault-degradation ladders anchored at their
// fault-free cells, repeated-election epoch tables, and Wilson success
// intervals everywhere. It reads one artifact; comparing two is
// internal/trajectory's question (cmd/benchdiff), and the two packages
// share nothing but harness.Artifact and the value formatter Num.
//
// Everything is a pure function of the artifact bytes, which hold no
// wall-clock field: section order follows artifact cell order and all
// numbers render with fixed rules, so the same artifact always produces
// byte-identical markdown (pinned by the golden test against
// testdata/BENCH_baseline.json). cmd/lereport is the CLI; CI renders the
// head artifact's report into the job summary.
package report

import (
	"fmt"
	"strings"

	"anonlead/internal/harness"
	"anonlead/internal/stats"
)

// Options tunes report generation. The zero value is the default report.
type Options struct {
	// Title overrides the report heading (default "Reproduction report").
	Title string
}

func (o Options) title() string {
	if o.Title != "" {
		return o.Title
	}
	return "Reproduction report"
}

// Row is one rendered cell: the artifact cell plus the derived columns
// every section shares (Wilson interval and — in anchored sections — cost
// ratios against the anchor; the predicted-vs-measured ratios are the
// cell's own).
type Row struct {
	Cell harness.Cell
	// SuccessLo and SuccessHi are the ~95% Wilson bounds of the success
	// rate, recomputed from successes/trials.
	SuccessLo, SuccessHi float64
	// XMsgs and XRounds are cost ratios against the section anchor (0 when
	// the section has no anchor or the anchor cost is 0).
	XMsgs, XRounds float64
}

// newRow derives the shared columns of a cell.
func newRow(c harness.Cell) Row {
	r := Row{Cell: c}
	r.SuccessLo, r.SuccessHi = stats.Wilson(c.Successes, c.Trials)
	return r
}

// anchorRatios fills the against-anchor columns of a row.
func (r *Row) anchorRatios(anchor *harness.Cell) {
	if anchor == nil {
		return
	}
	if anchor.Messages > 0 {
		r.XMsgs = r.Cell.Messages / anchor.Messages
	}
	if anchor.Rounds > 0 {
		r.XRounds = r.Cell.Rounds / anchor.Rounds
	}
}

// FamilyTable is one Table-1-shaped section: one protocol on one graph
// family, one row per size, with the empirical message-scaling exponent
// fitted over the rows (the paper's log-log slope).
type FamilyTable struct {
	Protocol, Family string
	Rows             []Row
	// MsgExponent is the fitted exponent of messages in n with its R²
	// (both 0 when fewer than two usable points).
	MsgExponent, MsgExponentR2 float64
}

// KnowledgeTable is one knowledge-ablation section: a fixed workload
// swept over presumed network sizes, anchored at the truthful cell
// (presumed n = n).
type KnowledgeTable struct {
	Protocol, Family string
	N                int
	Rows             []Row
	// HasAnchor reports whether the truthful presumed n = n cell was
	// present to anchor the ratio columns.
	HasAnchor bool
}

// FaultTable is one fault-degradation ladder: a fixed protocol×workload
// swept over adversary severities, anchored at the fault-free cell.
type FaultTable struct {
	Protocol, Family string
	N                int
	PresumedN        int
	// Kinds names the adversary primitives the ladder sweeps ("loss",
	// "crash", "churn+delay", …), so several ladders on one workload stay
	// distinguishable in the rendered headings.
	Kinds     string
	Rows      []Row // Rows[0] is the fault-free anchor when HasAnchor
	HasAnchor bool
}

// EpochTable is one repeated-election sweep: a fixed protocol×workload
// running one epoch scenario over an adversary ladder, anchored at the
// fault-free cell. Cell metrics are scenario totals; the epochs object
// carries the amortized per-epoch stats.
type EpochTable struct {
	Protocol, Family string
	N                int
	// Scenario is the epoch descriptor shared by every row
	// ("epochs=5,fault=crash").
	Scenario  string
	Rows      []Row // Rows[0] is the fault-free anchor when HasAnchor
	HasAnchor bool
}

// Report is the structured reproduction report one artifact renders to.
type Report struct {
	Title    string
	Schema   string
	RootSeed uint64
	Cells    int

	Families  []FamilyTable
	Knowledge []KnowledgeTable
	Faults    []FaultTable
	Epochs    []EpochTable
}

// New builds the report of an artifact.
func New(a harness.Artifact, opts Options) Report {
	r := Report{
		Title:    opts.title(),
		Schema:   a.Schema,
		RootSeed: a.RootSeed,
		Cells:    len(a.Cells),
	}
	r.section(a.Cells)
	return r
}

// anchorKey keys the anchored sections: the cell's Key without the
// adversary severity and the scenario.
func anchorKey(c harness.Cell) harness.CellKey {
	k := c.Key()
	k.Adversary, k.Scenario = "", ""
	return k
}

// section reconstructs the sweep structure from the flat cell list, in
// order: fault ladders (a fault-free cell immediately followed by faulted
// cells of the same identity, or bare faulted runs), knowledge sweeps
// (consecutive presumed-n cells on one workload), and everything else as
// Table-1 family rows grouped by protocol×family in first-appearance
// order.
func (r *Report) section(cells []harness.Cell) {
	famIdx := map[[2]string]int{}
	knowIdx := map[harness.CellKey]int{} // keyed with PresumedN 0

	for i := 0; i < len(cells); {
		c := cells[i]
		id := anchorKey(c)

		// An epoch scenario sweep: consecutive cells sharing identity and
		// scenario descriptor, anchored at the fault-free rung. Checked
		// before the fault-ladder branch — scenario cells carry adversary
		// descriptors too, but belong to the repeated-election section.
		if c.Scenario != "" {
			et := EpochTable{Protocol: string(id.Protocol), Family: id.Family, N: id.N, Scenario: c.Scenario}
			var anchor *harness.Cell
			if c.Adversary == "" {
				anchor = &cells[i]
				et.HasAnchor = true
			}
			for i < len(cells) && cells[i].Scenario == c.Scenario && anchorKey(cells[i]) == id &&
				(len(et.Rows) == 0 || cells[i].Adversary != "") {
				row := newRow(cells[i])
				if &cells[i] != anchor {
					row.anchorRatios(anchor)
				}
				et.Rows = append(et.Rows, row)
				i++
			}
			r.Epochs = append(r.Epochs, et)
			continue
		}

		// A fault ladder: [anchor?] faulted+ with one identity.
		isLadderStart := c.Adversary != "" ||
			(i+1 < len(cells) && cells[i+1].Adversary != "" && anchorKey(cells[i+1]) == id)
		if isLadderStart {
			ft := FaultTable{Protocol: string(id.Protocol), Family: id.Family, N: id.N, PresumedN: id.PresumedN}
			var anchor *harness.Cell
			if c.Adversary == "" {
				anchor = &cells[i]
				ft.HasAnchor = true
				ft.Rows = append(ft.Rows, newRow(c))
				i++
			}
			for i < len(cells) && cells[i].Adversary != "" && anchorKey(cells[i]) == id {
				row := newRow(cells[i])
				row.anchorRatios(anchor)
				ft.Rows = append(ft.Rows, row)
				i++
			}
			ft.Kinds = ladderKinds(ft.Rows)
			r.Faults = append(r.Faults, ft)
			continue
		}

		// A knowledge sweep: consecutive cells on one workload with a
		// presumed size (the truthful factor-1 cell also carries one).
		if c.PresumedN > 0 {
			key := anchorKey(c)
			key.PresumedN = 0
			var kt *KnowledgeTable
			if j, ok := knowIdx[key]; ok {
				kt = &r.Knowledge[j]
			} else {
				knowIdx[key] = len(r.Knowledge)
				r.Knowledge = append(r.Knowledge, KnowledgeTable{
					Protocol: string(key.Protocol), Family: key.Family, N: key.N,
				})
				kt = &r.Knowledge[len(r.Knowledge)-1]
			}
			kt.Rows = append(kt.Rows, newRow(c))
			i++
			continue
		}

		// A Table-1 row.
		key := [2]string{string(c.Protocol), c.Family}
		var ft *FamilyTable
		if j, ok := famIdx[key]; ok {
			ft = &r.Families[j]
		} else {
			famIdx[key] = len(r.Families)
			r.Families = append(r.Families, FamilyTable{Protocol: string(c.Protocol), Family: c.Family})
			ft = &r.Families[len(r.Families)-1]
		}
		ft.Rows = append(ft.Rows, newRow(c))
		i++
	}

	// Knowledge anchors: the truthful presumed n = n cell, when present.
	for j := range r.Knowledge {
		kt := &r.Knowledge[j]
		var anchor *harness.Cell
		for k := range kt.Rows {
			if kt.Rows[k].Cell.PresumedN == kt.N {
				anchor = &kt.Rows[k].Cell
				kt.HasAnchor = true
				break
			}
		}
		for k := range kt.Rows {
			kt.Rows[k].anchorRatios(anchor)
		}
	}

	// Family scaling exponents.
	for j := range r.Families {
		ft := &r.Families[j]
		var xs, ys []float64
		for _, row := range ft.Rows {
			xs = append(xs, float64(row.Cell.N))
			ys = append(ys, row.Cell.Messages)
		}
		if slope, r2 := stats.LogLogSlope(xs, ys); r2 > 0 {
			ft.MsgExponent, ft.MsgExponentR2 = slope, r2
		}
	}
}

// ladderKinds names the adversary primitives a ladder's descriptors use,
// in first-appearance order ("loss", "crash", "churn+delay", …). The
// descriptor grammar is "kind=value" primitives joined by commas.
func ladderKinds(rows []Row) string {
	var kinds []string
	seen := map[string]bool{}
	for _, row := range rows {
		for _, prim := range strings.Split(row.Cell.Adversary, ",") {
			kind, _, _ := strings.Cut(prim, "=")
			if kind != "" && !seen[kind] {
				seen[kind] = true
				kinds = append(kinds, kind)
			}
		}
	}
	return strings.Join(kinds, "+")
}

// knowledgeFactor is the presumed/true size ratio of a knowledge row.
func knowledgeFactor(c harness.Cell) float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.PresumedN) / float64(c.N)
}

// describe renders the one-line artifact summary under the title.
func (r Report) describe() string {
	return fmt.Sprintf("artifact schema `%s` · root seed %d · %d cells", r.Schema, r.RootSeed, r.Cells)
}
