package harness

import (
	"anonlead/internal/adversary"
	"anonlead/internal/core"
)

// FaultSweep is one resilience degradation curve: a protocol on a fixed
// workload, swept over a family of adversary configurations of increasing
// severity. The first spec is conventionally the fault-free anchor (a zero
// Spec), so the artifact carries the unperturbed reference point the report
// anchors the ladder's cost ratios at.
type FaultSweep struct {
	Title    string
	Protocol Protocol
	Workload Workload
	Specs    []adversary.Spec
	// Opts is the trial-option template every cell of the sweep starts
	// from (protocol tunables like the revocable schedule or a round cap
	// for runs an adversary can keep from converging; Epochs, the scenario
	// every cell of a repeated-election ladder runs). Trials, Seed, and
	// Adversary are overwritten per cell by CellSpecs.
	Opts TrialOpts
}

// CellSpecs expands the sweep into orchestrator cell specs, one per
// adversary configuration.
func (f FaultSweep) CellSpecs(trials int, seed uint64) []CellSpec {
	specs := make([]CellSpec, len(f.Specs))
	for i := range f.Specs {
		a := f.Specs[i]
		opts := f.Opts
		opts.Trials, opts.Seed, opts.Adversary = trials, seed, &a
		specs[i] = CellSpec{Protocol: f.Protocol, Workload: f.Workload, Opts: opts}
	}
	return specs
}

// lossLadder builds a loss sweep starting at the fault-free anchor.
func lossLadder(rates ...float64) []adversary.Spec {
	specs := []adversary.Spec{{}}
	for _, r := range rates {
		specs = append(specs, adversary.Spec{Loss: r})
	}
	return specs
}

// FaultSweeps returns the resilience experiment matrix: fault rate ×
// protocol × graph family for the adversary kinds internal/adversary
// provides. The quick matrix is what CI's bench artifact records (its
// cells sit in testdata/BENCH_baseline.json, so changing it requires
// `make baseline`); the full matrix adds larger graphs and more severity
// steps.
func FaultSweeps(quick bool) []FaultSweep {
	expander, cycle := 64, 32
	losses := []float64{0.05, 0.1, 0.2}
	crashes := []float64{0.1, 0.25, 0.5}
	churns := []float64{0.1, 0.3}
	if !quick {
		expander, cycle = 128, 64
		losses = append(losses, 0.3)
		churns = append(churns, 0.5)
	}

	crashLadder := []adversary.Spec{{}}
	for _, f := range crashes {
		crashLadder = append(crashLadder, adversary.Spec{CrashFraction: f, CrashBy: 16})
	}
	churnLadder := []adversary.Spec{{}}
	for _, c := range churns {
		churnLadder = append(churnLadder,
			adversary.Spec{Churn: c, ChurnPreserve: true},
			adversary.Spec{Churn: c})
	}
	delayLadder := []adversary.Spec{
		{},
		{DelayProb: 0.25, MaxDelay: 2},
		{DelayProb: 0.5, MaxDelay: 2},
		{DelayProb: 0.5, MaxDelay: 4},
	}

	// Revocable LE under crash-stop (the ROADMAP's open experiment):
	// success is judged over survivors, so the question the curve answers
	// is whether the revocation machinery still converges on a single
	// surviving leader once nodes crash mid-schedule. The workload stays
	// in the tiny-complete regime where the Theorem 3 polynomials are
	// simulable; the round cap sits above the fault-free stabilization
	// point (~54k rounds at n=4, ~394k at n=6) so only genuinely wedged
	// runs are cut off and recorded as failures.
	revocableCrash := []adversary.Spec{{}}
	for _, f := range []float64{0.25, 0.5} {
		revocableCrash = append(revocableCrash, adversary.Spec{CrashFraction: f, CrashBy: 8})
	}
	revocableN, revocableCap := 4, 60_000
	if !quick {
		revocableN, revocableCap = 6, 450_000
	}
	revocableOpts := TrialOpts{Proto: core.ProtoConfig{MaxRounds: revocableCap}}

	return []FaultSweep{
		{"F1-a message loss vs IRE on expanders", ProtoIRE,
			Workload{Family: "expander", N: expander}, lossLadder(losses...), TrialOpts{}},
		{"F1-b message loss vs IRE on cycles", ProtoIRE,
			Workload{Family: "cycle", N: cycle}, lossLadder(losses...), TrialOpts{}},
		{"F1-c message loss vs FloodMax on expanders", ProtoFlood,
			Workload{Family: "expander", N: expander}, lossLadder(losses...), TrialOpts{}},
		{"F1-d message loss vs Gilbert-class on expanders", ProtoWalkNotify,
			Workload{Family: "expander", N: expander}, lossLadder(losses...), TrialOpts{}},
		{"F2 crash-stop vs IRE on expanders", ProtoIRE,
			Workload{Family: "expander", N: expander}, crashLadder, TrialOpts{}},
		{"F3 link churn vs IRE on expanders", ProtoIRE,
			Workload{Family: "expander", N: expander}, churnLadder, TrialOpts{}},
		{"F4 delivery jitter vs FloodMax on expanders", ProtoFlood,
			Workload{Family: "expander", N: expander}, delayLadder, TrialOpts{}},
		{"F5 crash-stop vs Revocable LE on complete graphs", ProtoRevocable,
			Workload{Family: "complete", N: revocableN}, revocableCrash, revocableOpts},
	}
}
