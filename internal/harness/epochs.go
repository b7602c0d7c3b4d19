package harness

import (
	"anonlead/internal/adversary"
	"anonlead/internal/epoch"
)

// EpochSweep is one repeated-election experiment: a protocol on a fixed
// workload running the same epoch scenario under a ladder of adversary
// configurations. The first spec is conventionally the fault-free anchor
// (a zero Spec), and the ladder's point is the adaptive-vs-static
// comparison: an adversary that targets the busiest node (the emerging
// leader) versus one that kills on a fixed schedule of equal severity.
type EpochSweep struct {
	Title    string
	Protocol Protocol
	Workload Workload
	// Epochs is the scenario every cell of the sweep runs (length, fault
	// mode, knowledge carry).
	Epochs epoch.Opts
	// Specs is the adversary ladder, one cell per configuration.
	Specs []adversary.Spec
	// Opts is the trial-option template every cell starts from. Trials,
	// Seed, Adversary and Epochs are overwritten per cell by CellSpecs.
	Opts TrialOpts
}

// CellSpecs expands the sweep into orchestrator cell specs, one per
// adversary configuration, each carrying the sweep's epoch scenario.
func (e EpochSweep) CellSpecs(trials int, seed uint64) []CellSpec {
	specs := make([]CellSpec, len(e.Specs))
	for i := range e.Specs {
		a := e.Specs[i]
		eo := e.Epochs
		opts := e.Opts
		opts.Trials, opts.Seed, opts.Adversary, opts.Epochs = trials, seed, &a, &eo
		specs[i] = CellSpec{Protocol: e.Protocol, Workload: e.Workload, Opts: opts}
	}
	return specs
}

// EpochSweeps returns the repeated-election experiment matrix: epoch
// scenarios × adversary ladders. The quick matrix is what `make
// epochs-smoke` archives as BENCH_epochs.json; the full matrix runs longer
// histories on larger graphs.
func EpochSweeps(quick bool) []EpochSweep {
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

	return []EpochSweep{
		{"E1 crash-recover epochs vs IRE on expanders", ProtoIRE,
			Workload{Family: "expander", N: expander},
			epoch.Opts{Epochs: epochs}, ladder, TrialOpts{}},
		{"E2 crash-recover epochs with knowledge carry vs IRE on complete graphs", ProtoIRE,
			Workload{Family: "complete", N: complete},
			epoch.Opts{Epochs: epochs, Carry: true}, ladder, TrialOpts{}},
		{"E3 revolving leadership (revoke) vs FloodMax on expanders", ProtoFlood,
			Workload{Family: "expander", N: expander},
			// FloodMax halts within the graph diameter, so the adaptive
			// window must be shorter than the 8-round default to observe
			// any traffic before the election ends.
			epoch.Opts{Epochs: epochs, Revoke: true},
			[]adversary.Spec{{}, {AdaptiveCrash: 1, AdaptiveWindow: 2}}, TrialOpts{}},
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
