package harness

import "fmt"

// This file is the artifact layout, nothing more: the deterministic
// expansion of each experiment's cell matrix (Table 1, the X4 knowledge
// ablation, the F1-F5 fault ladders, and their union, the gate sweep) into
// an ordered spec list. `lebench -exp sweeps` runs Plan.Specs() as one
// sweep, so index i of it is cell i of the emitted artifact.

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
// the result is cell i of the artifact the sweep emits.
func (p Plan) Specs() []CellSpec {
	var specs []CellSpec
	for _, sec := range p.Sections {
		specs = append(specs, sec.Specs...)
	}
	return specs
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
	ropts := TrialOpts{Trials: rt, Seed: seed}
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
// artifact order.
func SweepsPlan(quick bool, trials int, seed uint64) Plan {
	var p Plan
	for _, plan := range []func(bool, int, uint64) Plan{Table1Plan, KnowledgePlan, FaultsPlan} {
		p.Sections = append(p.Sections, plan(quick, trials, seed).Sections...)
	}
	return p
}
