package harness

import (
	"reflect"
	"testing"

	"anonlead/internal/adversary"
	"anonlead/internal/core"
)

// TestFaultSweepAnchorsMatchFaultFree: the zero-spec anchor cell of a
// fault sweep is exactly the cell an unperturbed run produces.
func TestFaultSweepAnchorsMatchFaultFree(t *testing.T) {
	f := FaultSweep{
		Protocol: ProtoIRE,
		Workload: Workload{Family: "cycle", N: 16},
		Specs:    lossLadder(0.9),
	}
	specs := f.CellSpecs(3, 7)
	if len(specs) != 2 || !specs[0].Opts.Adversary.IsZero() || specs[1].Opts.Adversary.Loss != 0.9 {
		t.Fatalf("CellSpecs wrong shape: %+v", specs)
	}
	cells, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunCell(ProtoIRE, f.Workload, TrialOpts{Trials: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells[0], plain) {
		t.Fatalf("anchor cell differs from fault-free run:\nanchor: %+v\nplain:  %+v", cells[0], plain)
	}
}

// TestFaultInjectionDegradesElection: heavy loss must visibly perturb the
// run — packets dropped, and election no better than the anchor.
func TestFaultInjectionDegradesElection(t *testing.T) {
	w := Workload{Family: "expander", N: 32}
	anchor, err := RunCell(ProtoIRE, w, TrialOpts{Trials: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := RunCell(ProtoIRE, w, TrialOpts{Trials: 4, Seed: 3,
		Adversary: &adversary.Spec{Loss: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Dropped == 0 {
		t.Fatal("loss 0.9 dropped nothing")
	}
	if lossy.Successes > anchor.Successes {
		t.Fatalf("loss 0.9 improved success: %d > %d", lossy.Successes, anchor.Successes)
	}
	if lossy.Successes == anchor.Successes && anchor.Successes == lossy.Trials {
		t.Fatalf("loss 0.9 left every trial successful (%d/%d) — adversary inert?",
			lossy.Successes, lossy.Trials)
	}

	// Crash-stop: the crashed-node count reaches the cell aggregates.
	crashed, err := RunCell(ProtoIRE, w, TrialOpts{Trials: 4, Seed: 3,
		Adversary: &adversary.Spec{CrashFraction: 0.5, CrashBy: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if crashed.CrashedNodes == 0 {
		t.Fatal("crash fraction 0.5 crashed nobody")
	}
}

// TestFaultSweepsMatrix sanity-checks the experiment matrix: anchors
// first, severities increasing, and a render that names the adversaries.
func TestFaultSweepsMatrix(t *testing.T) {
	for _, quick := range []bool{true, false} {
		sweeps := FaultSweeps(quick)
		if len(sweeps) < 5 {
			t.Fatalf("quick=%v: only %d sweeps", quick, len(sweeps))
		}
		for _, f := range sweeps {
			if len(f.Specs) < 2 {
				t.Fatalf("%s: no severity steps", f.Title)
			}
			if !f.Specs[0].IsZero() {
				t.Fatalf("%s: first spec is not the fault-free anchor", f.Title)
			}
			for i, s := range f.Specs {
				if err := s.Validate(); err != nil {
					t.Fatalf("%s spec %d: %v", f.Title, i, err)
				}
			}
		}
	}
}

// TestRevocableCrashSweepDeterminism pins the F5 cells (revocable LE
// under crash-stop): the sweep template carries the round cap through
// CellSpecs, crashes actually land, and the cells are byte-identical
// between one worker and three.
func TestRevocableCrashSweepDeterminism(t *testing.T) {
	sweeps := FaultSweeps(true)
	var f5 *FaultSweep
	for i := range sweeps {
		if sweeps[i].Protocol == ProtoRevocable {
			f5 = &sweeps[i]
		}
	}
	if f5 == nil {
		t.Fatal("quick fault matrix has no revocable sweep")
	}
	specs := f5.CellSpecs(2, 9)
	for _, s := range specs {
		if s.Opts.Proto.MaxRounds == 0 {
			t.Fatalf("sweep template lost the revocable round cap: %+v", s.Opts)
		}
	}
	ref, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !specs[0].Opts.Adversary.IsZero() {
		t.Fatal("first F5 spec is not the fault-free anchor")
	}
	crashed := false
	for _, c := range ref[1:] {
		if c.CrashedNodes > 0 {
			crashed = true
		}
	}
	if !crashed {
		t.Fatalf("crash ladder crashed nobody: %+v", ref)
	}
	got, err := (Orchestrator{Workers: 3}).RunSweep(f5.CellSpecs(2, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("three-worker F5 cells differ from one worker")
	}
}

// TestRevocableUnderFaultsFailsSoftly: a faulted revocable election that
// cannot converge (everyone crash-stops) is a measured unsuccessful
// trial, not a sweep-aborting error.
func TestRevocableUnderFaultsFailsSoftly(t *testing.T) {
	cell, err := RunCell(ProtoRevocable, Workload{Family: "complete", N: 4},
		TrialOpts{Trials: 2, Seed: 5, Proto: core.ProtoConfig{MaxRounds: 50_000},
			Adversary: &adversary.Spec{CrashFraction: 1, CrashBy: 0}})
	if err != nil {
		t.Fatalf("all-crash revocable cell errored: %v", err)
	}
	if cell.Successes != 0 || cell.CrashedNodes != 4 {
		t.Fatalf("all-crash cell wrong: %+v", cell)
	}
}
