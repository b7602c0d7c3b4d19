package harness

import (
	"fmt"
	"time"

	"anonlead/internal/stats"
)

// The scaling experiment (lebench -exp scaling) is the estimate-regime
// counterpart of Table 1: size ramps far past MixingTimeExactLimit, where
// the streaming spectral estimators and the struct-of-arrays simulator
// state are what make a cell affordable at all. Each cell is timed
// individually — wall time is a first-class column here, because the
// experiment exists to demonstrate that cell cost scales near-linearly in
// m and that the profile cache collapses repeated cells to trial cost.

// TimedCell pairs one aggregated sweep cell with its wall-clock cost,
// split into preparation (graph build + structural validation + spectral
// profile — the part the cell cache collapses on a repeated cell) and the
// total including every trial.
type TimedCell struct {
	Cell        Cell
	PrepSeconds float64
	Seconds     float64
}

// ScalingSweep is one protocol × family size ramp of the scaling matrix.
type ScalingSweep struct {
	Title  string
	Proto  Protocol
	Family string
	Sizes  []int
}

// ScalingSweeps returns the -exp scaling matrix. The full matrix ramps
// n = 10³…10⁵ on expanders (FloodMax to 10⁵; the walk-based protocols to
// 10⁴, where their tmix-long executions stay affordable) plus cycle and
// diameter-2 ramps that pin the two extreme mixing regimes. The quick
// matrix is the CI smoke: one 10⁵-node expander cell run twice, so the
// second run demonstrates the profile-cache hit end to end.
func ScalingSweeps(quick bool) []ScalingSweep {
	if quick {
		return []ScalingSweep{
			{"Scaling smoke: FloodMax on a 100k-node expander (cold)",
				ProtoFlood, "expander", []int{100_000}},
			{"Scaling smoke: FloodMax on a 100k-node expander (cached)",
				ProtoFlood, "expander", []int{100_000}},
		}
	}
	return []ScalingSweep{
		{"Scaling: FloodMax (Kutten-class) on expanders",
			ProtoFlood, "expander", []int{1_000, 10_000, 100_000}},
		{"Scaling: IRE (this work) on expanders",
			ProtoIRE, "expander", []int{1_000, 4_000, 10_000}},
		{"Scaling: Gilbert-class baseline on expanders",
			ProtoWalkNotify, "expander", []int{1_000, 4_000, 10_000}},
		{"Scaling: FloodMax (Kutten-class) on cycles",
			ProtoFlood, "cycle", []int{1_024, 4_096, 16_384}},
		{"Scaling: FloodMax (Kutten-class) on diameter-2 clique-of-cliques",
			ProtoFlood, "diam2", []int{1_001, 4_001, 10_001}},
	}
}

// RunScalingSweep executes one sweep cell by cell, timing each cell's wall
// clock. Cells run one at a time on one worker on purpose: the per-cell
// Seconds column is the measurement, and pooled execution would smear
// prepare and trial costs across cells.
func RunScalingSweep(sw ScalingSweep, opts TrialOpts) ([]TimedCell, []CellSpec, error) {
	specs := SweepSpecs(sw.Proto, sw.Family, sw.Sizes, opts)
	timed := make([]TimedCell, len(specs))
	for i, spec := range specs {
		start := time.Now()
		// Prepare explicitly (RunCell would anyway — the cache makes the
		// repeat free) so the prep share is measurable on its own.
		if _, _, err := prepareCell(spec.Workload, spec.Opts.Seed, spec.Opts.ProfileMode); err != nil {
			return nil, nil, err
		}
		prep := time.Since(start)
		c, err := RunCell(spec.Protocol, spec.Workload, spec.Opts)
		if err != nil {
			return nil, nil, err
		}
		timed[i] = TimedCell{Cell: c, PrepSeconds: prep.Seconds(), Seconds: time.Since(start).Seconds()}
	}
	return timed, specs, nil
}

// RenderScaling renders one scaling sweep: the cell columns of Table 1
// plus the profile regime and per-cell wall time, then the empirical
// scaling exponents of messages and wall time in n (the deliverable the
// experiment exists for — near-linear exponents mean the streaming
// estimators and SoA state removed the superlinear setup costs).
func RenderScaling(title string, cells []TimedCell) string {
	t := Table{
		Title: title,
		Header: []string{
			"family", "n", "m", "D", "tmix", "phi", "mode",
			"msgs", "rounds", "success", "prep_s", "secs",
		},
	}
	var ns, msgs, secs []float64
	for _, tc := range cells {
		prof := tc.Cell.Profile
		mode := "exact"
		if prof.Estimated {
			mode = "estimate"
		}
		t.AddRow(
			tc.Cell.Workload.Family, I(prof.N), I(prof.M), I(prof.Diameter),
			I(prof.MixingTime), F(prof.Conductance), mode,
			F(tc.Cell.Messages), F(tc.Cell.Rounds),
			fmt.Sprintf("%d/%d", tc.Cell.Successes, tc.Cell.Trials),
			F(tc.PrepSeconds), F(tc.Seconds),
		)
		ns = append(ns, float64(prof.N))
		msgs = append(msgs, tc.Cell.Messages)
		secs = append(secs, tc.Seconds)
	}
	out := t.String()
	if slope, r2 := stats.LogLogSlope(ns, msgs); r2 > 0 {
		out += fmt.Sprintf("empirical message exponent: msgs ~ n^%.2f (R²=%.3f)\n", slope, r2)
	}
	if slope, r2 := stats.LogLogSlope(ns, secs); r2 > 0 {
		out += fmt.Sprintf("empirical wall-time exponent: secs ~ n^%.2f (R²=%.3f)\n", slope, r2)
	}
	return out
}

// CellsOfTimed strips the timings (what the JSON artifact records — wall
// times are machine-dependent, cells are deterministic).
func CellsOfTimed(timed []TimedCell) []Cell {
	cells := make([]Cell, len(timed))
	for i, tc := range timed {
		cells[i] = tc.Cell
	}
	return cells
}
