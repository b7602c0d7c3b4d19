package harness

import (
	"anonlead"
	"anonlead/internal/adversary"
)

// EpochSweeps returns the repeated-election experiment matrix: epoch
// scenarios × adversary ladders, each a FaultSweep whose template carries
// the scenario (Opts.Epochs: length, fault mode, knowledge carry), so every
// cell of a ladder runs the same one. The ladder's point is the
// adaptive-vs-static comparison: an adversary that targets the busiest node
// (the emerging leader) versus one that kills on a fixed schedule of equal
// severity. The quick matrix is what `make epochs-smoke` archives as
// BENCH_epochs.json; the full matrix runs longer histories on larger graphs.
func EpochSweeps(quick bool) []FaultSweep {
	expander, complete := 32, 16
	epochs := 3
	if !quick {
		expander, complete = 64, 32
		epochs = 5
	}

	// The adaptive-vs-static ladder: the fault-free anchor, a static
	// crash-stop of one node early in each election, and the adaptive
	// adversary striking the busiest node after its observation window —
	// equal severity (one victim per election), different targeting.
	ladder := []adversary.Spec{
		{},
		{CrashFraction: 0.1, CrashBy: 8},
		{AdaptiveCrash: 1, AdaptiveWindow: 8},
	}

	return []FaultSweep{
		{"E1 crash-recover epochs vs IRE on expanders", ProtoIRE,
			Workload{Family: "expander", N: expander},
			ladder, TrialOpts{Epochs: &anonlead.Scenario{Epochs: epochs}}},
		{"E2 crash-recover epochs with knowledge carry vs IRE on complete graphs", ProtoIRE,
			Workload{Family: "complete", N: complete},
			ladder, TrialOpts{Epochs: &anonlead.Scenario{Epochs: epochs, Carry: true}}},
		{"E3 revolving leadership (revoke) vs FloodMax on expanders", ProtoFlood,
			Workload{Family: "expander", N: expander},
			// FloodMax halts within the graph diameter, so the adaptive
			// window must be shorter than the 8-round default to observe
			// any traffic before the election ends.
			[]adversary.Spec{{}, {AdaptiveCrash: 1, AdaptiveWindow: 2}},
			TrialOpts{Epochs: &anonlead.Scenario{Epochs: epochs, Revoke: true}}},
	}
}

// EpochsPlan expands the repeated-election matrix, one section per sweep.
// It is a separate experiment (`lebench -exp epochs`), never part of
// SweepsPlan's artifact matrix.
func EpochsPlan(quick bool, trials int, seed uint64) Plan {
	t := planTrials(trials, 6)
	if quick {
		t = planTrials(trials, 4)
	}
	es := EpochSweeps(quick)
	sections := make([]PlanSection, 0, len(es))
	for _, e := range es {
		sections = append(sections, PlanSection{e.Title, e.CellSpecs(t, seed)})
	}
	return Plan{sections}
}
