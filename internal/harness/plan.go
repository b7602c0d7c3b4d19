package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file is the sweep planner: the canonical, deterministic expansion
// of the artifact cell matrix (Table 1 + the X4 knowledge ablation + the
// F1-F5 fault ladders) into an ordered spec list, plus the selector and
// partition machinery a distributed sweep uses to shard that list across
// worker processes.
//
// The plan IS the artifact layout: `lebench -exp sweeps` runs Plan.Specs()
// as one sweep, so index i of it is cell i of the emitted artifact. A worker
// given a cell selector runs exactly the selected specs (per-trial seeds
// are pure functions of the root seed and the cell, never of which process
// runs it), records the plan indices it covered in its partial artifact,
// and MergeArtifacts reassembles the full artifact byte-identically to a
// single-process sweep.

// PlanSection is one contiguous run of cells that belong together: a
// Table-1 family sweep, the T1-d revocable rows, one knowledge-ablation
// workload, one fault ladder or one epoch scenario. The report rebuilds the
// same grouping from the cells themselves (internal/report), so a section
// carries nothing for a renderer.
type PlanSection struct {
	Title string
	// Specs are the section's cells in execution (= artifact) order.
	Specs []CellSpec
}

// Plan is the ordered cell matrix of one artifact sweep.
type Plan struct {
	Sections []PlanSection
}

// Specs flattens the plan into the artifact-ordered spec list. Index i of
// the result is cell i of the artifact a full sweep emits — the contract
// every cell selector is resolved against.
func (p Plan) Specs() []CellSpec {
	var specs []CellSpec
	for _, sec := range p.Sections {
		specs = append(specs, sec.Specs...)
	}
	return specs
}

// Len is the number of cells in the plan.
func (p Plan) Len() int {
	n := 0
	for _, sec := range p.Sections {
		n += len(sec.Specs)
	}
	return n
}

// planPick selects the quick or the full matrix.
func planPick(quick bool, full, reduced []int) []int {
	if quick {
		return reduced
	}
	return full
}

// planTrials resolves a trial count: an explicit override wins over the
// experiment default.
func planTrials(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}

// Table1Plan expands the Table 1 matrix: T1-a (IRE), T1-b (Gilbert-class),
// T1-c (flooding class) across families, the diameter-2 clique-of-cliques
// cells, and the T1-d revocable rows. trials is an override (0 = the
// experiment defaults: 10 full / 8 quick, 6 for revocable). The quick
// matrix is CI's regression-gate workload — changing it requires
// regenerating testdata/BENCH_baseline.json (make baseline).
func Table1Plan(quick bool, trials int, seed uint64) Plan {
	t := planTrials(trials, 10)
	if quick {
		t = planTrials(trials, 8)
	}
	opts := TrialOpts{Trials: t, Seed: seed}
	type sweep struct {
		title  string
		proto  Protocol
		family string
		sizes  []int
	}
	sweeps := []sweep{
		{"T1-a IRE (this work) on expanders", ProtoIRE, "expander",
			planPick(quick, []int{32, 64, 128, 256, 512}, []int{32, 64, 128, 256})},
		{"T1-a IRE (this work) on hypercubes", ProtoIRE, "hypercube",
			planPick(quick, []int{32, 64, 128, 256, 512}, []int{32, 64, 128, 256})},
		{"T1-a IRE (this work) on cycles", ProtoIRE, "cycle",
			planPick(quick, []int{16, 32, 64, 96, 128}, []int{16, 32, 64, 96})},
		{"T1-a IRE (this work) on complete graphs", ProtoIRE, "complete",
			planPick(quick, []int{32, 64, 128, 256}, []int{32, 64, 128})},
		{"T1-a IRE (this work) on diameter-2 clique-of-cliques", ProtoIRE, "diam2",
			planPick(quick, []int{33, 65, 129, 257}, []int{33, 65, 129})},
		{"T1-b Gilbert-class baseline on expanders", ProtoWalkNotify, "expander",
			planPick(quick, []int{32, 64, 128, 256, 512}, []int{32, 64, 128, 256})},
		{"T1-b Gilbert-class baseline on cycles", ProtoWalkNotify, "cycle",
			planPick(quick, []int{16, 32, 64, 96, 128}, []int{16, 32, 64, 96})},
		{"T1-c FloodMax (Kutten-class) on expanders", ProtoFlood, "expander",
			planPick(quick, []int{32, 64, 128, 256, 512}, []int{32, 64, 128, 256})},
		{"T1-c FloodMax (Kutten-class) on complete graphs", ProtoFlood, "complete",
			planPick(quick, []int{32, 64, 128, 256}, []int{32, 64, 128})},
		{"T1-c FloodMax (Kutten-class) on diameter-2 clique-of-cliques", ProtoFlood, "diam2",
			planPick(quick, []int{33, 65, 129, 257}, []int{33, 65, 129})},
	}
	sections := make([]PlanSection, 0, len(sweeps)+1)
	for _, sw := range sweeps {
		sections = append(sections, PlanSection{sw.title, SweepSpecs(sw.proto, sw.family, sw.sizes, opts)})
	}

	// T1-d: the revocable protocol at faithful parameters on tiny complete
	// graphs (where the Theorem 3 polynomials are simulable). Quick keeps
	// 6 trials: below that the Wilson intervals of a full success collapse
	// (k/k -> 0/k) still overlap, so the benchdiff success gate would be
	// vacuous on these cells.
	rt := planTrials(trials, 6)
	sizes := planPick(quick, []int{3, 4, 6, 8}, []int{3, 4, 6})
	ropts := TrialOpts{Trials: rt, Seed: seed, RevocableUseProfileIso: true}
	sections = append(sections, PlanSection{
		"T1-d Revocable LE (this work, faithful Theorem 3 schedule) on complete graphs",
		SweepSpecs(ProtoRevocable, "complete", sizes, ropts),
	})
	return Plan{sections}
}

// KnowledgePlan expands the X4 knowledge ablation (after Dieudonné-Pelc):
// presumed-n factor sweeps on an expander and on the diameter-2
// clique-of-cliques, one section per workload.
func KnowledgePlan(quick bool, trials int, seed uint64) Plan {
	t := planTrials(trials, 10)
	if quick {
		t = planTrials(trials, 6)
	}
	factors := []float64{0.25, 0.5, 1, 2, 4}
	workloads := []Workload{
		{Family: "expander", N: 128},
		{Family: "diam2", N: 65},
	}
	sections := make([]PlanSection, 0, len(workloads))
	for _, w := range workloads {
		sections = append(sections, PlanSection{
			fmt.Sprintf("X4 knowledge ablation on %s n=%d", w.Family, w.N),
			KnowledgeSpecs(w, factors, t, seed),
		})
	}
	return Plan{sections}
}

// FaultsPlan expands the F1-F5 fault-injection resilience ladders, one
// section per ladder.
func FaultsPlan(quick bool, trials int, seed uint64) Plan {
	t := planTrials(trials, 10)
	if quick {
		t = planTrials(trials, 6)
	}
	fs := FaultSweeps(quick)
	sections := make([]PlanSection, 0, len(fs))
	for _, f := range fs {
		sections = append(sections, PlanSection{f.Title, f.CellSpecs(t, seed)})
	}
	return Plan{sections}
}

// SweepsPlan is the canonical artifact cell matrix — exactly what
// `lebench -exp sweeps` runs and CI's bench gate diffs: Table 1 (with the
// revocable rows), the knowledge ablation, and the fault ladders, in
// artifact order. A distributed sweep plans with this function, shards
// the flattened spec list across workers, and merges the partials back
// into the same artifact a single process would have written.
func SweepsPlan(quick bool, trials int, seed uint64) Plan {
	var p Plan
	for _, plan := range []func(bool, int, uint64) Plan{Table1Plan, KnowledgePlan, FaultsPlan} {
		p.Sections = append(p.Sections, plan(quick, trials, seed).Sections...)
	}
	return p
}

// selRange is one half-open [lo, hi) selector term.
type selRange struct{ lo, hi int }

// CellSelector names a subset of plan indices: comma-separated terms,
// each a single index "i" or a half-open range "lo:hi". Terms must be
// ascending and non-overlapping, so a selector has exactly one canonical
// index list and duplicate work cannot be expressed by accident.
type CellSelector struct {
	ranges []selRange
}

// ParseCellSelector parses a selector like "0:5", "7", or "0:5,7,9:12".
func ParseCellSelector(s string) (CellSelector, error) {
	if strings.TrimSpace(s) == "" {
		return CellSelector{}, fmt.Errorf("harness: empty cell selector")
	}
	var sel CellSelector
	last := -1
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		lo, hi, err := parseSelTerm(term)
		if err != nil {
			return CellSelector{}, err
		}
		if lo <= last {
			return CellSelector{}, fmt.Errorf("harness: cell selector %q: terms must be ascending and non-overlapping", s)
		}
		sel.ranges = append(sel.ranges, selRange{lo, hi})
		last = hi - 1
	}
	return sel, nil
}

// parseSelTerm parses one selector term ("i" or "lo:hi", hi exclusive).
func parseSelTerm(term string) (lo, hi int, err error) {
	loStr, hiStr, isRange := strings.Cut(term, ":")
	lo, err = strconv.Atoi(loStr)
	if err != nil || lo < 0 {
		return 0, 0, fmt.Errorf("harness: bad cell selector term %q", term)
	}
	if !isRange {
		return lo, lo + 1, nil
	}
	hi, err = strconv.Atoi(hiStr)
	if err != nil || hi <= lo {
		return 0, 0, fmt.Errorf("harness: bad cell selector term %q (want lo:hi with hi > lo)", term)
	}
	return lo, hi, nil
}

// SelectorFromIndices builds the canonical selector covering exactly the
// given plan indices (sorted, deduplicated, merged into ranges).
func SelectorFromIndices(indices []int) (CellSelector, error) {
	if len(indices) == 0 {
		return CellSelector{}, fmt.Errorf("harness: empty cell selector")
	}
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)
	var sel CellSelector
	for _, i := range sorted {
		if i < 0 {
			return CellSelector{}, fmt.Errorf("harness: negative cell index %d", i)
		}
		if n := len(sel.ranges); n > 0 && sel.ranges[n-1].hi == i {
			sel.ranges[n-1].hi = i + 1
			continue
		}
		if n := len(sel.ranges); n > 0 && i < sel.ranges[n-1].hi {
			continue // duplicate
		}
		sel.ranges = append(sel.ranges, selRange{i, i + 1})
	}
	return sel, nil
}

// String renders the canonical selector text ("0:5,7,9:12") — what
// ParseCellSelector accepts and the lebench -cells flag takes.
func (s CellSelector) String() string {
	terms := make([]string, len(s.ranges))
	for i, r := range s.ranges {
		if r.hi == r.lo+1 {
			terms[i] = strconv.Itoa(r.lo)
		} else {
			terms[i] = fmt.Sprintf("%d:%d", r.lo, r.hi)
		}
	}
	return strings.Join(terms, ",")
}

// IsZero reports whether the selector selects nothing.
func (s CellSelector) IsZero() bool { return len(s.ranges) == 0 }

// Indices expands the selector against a plan of the given size,
// validating every index is in [0, total).
func (s CellSelector) Indices(total int) ([]int, error) {
	var idxs []int
	for _, r := range s.ranges {
		if r.hi > total {
			return nil, fmt.Errorf("harness: cell selector %s out of range for a %d-cell plan", s, total)
		}
		for i := r.lo; i < r.hi; i++ {
			idxs = append(idxs, i)
		}
	}
	return idxs, nil
}

// PartitionPlan cuts a plan of total cells into at most workers contiguous
// selectors of nearly equal size (the distributed sweep's shard map).
// Every cell appears in exactly one selector; when workers exceeds total,
// only total selectors are returned.
func PartitionPlan(total, workers int) []CellSelector {
	if total <= 0 || workers <= 0 {
		return nil
	}
	if workers > total {
		workers = total
	}
	sels := make([]CellSelector, 0, workers)
	per, extra := total/workers, total%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + per
		if w < extra {
			hi++
		}
		sels = append(sels, CellSelector{ranges: []selRange{{lo, hi}}})
		lo = hi
	}
	return sels
}
