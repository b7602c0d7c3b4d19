package harness

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"anonlead"
	"anonlead/internal/adversary"
)

// epochTestSweep is a tiny repeated-election sweep: floodmax on a small
// complete graph, the fault-free anchor plus the adaptive rung (window 1,
// short enough to fire inside floodmax's diameter-bounded elections).
func epochTestSweep() FaultSweep {
	return FaultSweep{
		Title:    "epoch parity",
		Protocol: ProtoFlood,
		Workload: Workload{Family: "complete", N: 8},
		Specs: []adversary.Spec{
			{},
			{AdaptiveCrash: 1, AdaptiveWindow: 1},
		},
		Opts: TrialOpts{Epochs: &anonlead.Scenario{Epochs: 3}},
	}
}

// TestEpochSweepParallelMatchesSequential is the orchestrator half of the
// epoch determinism acceptance: the same scenario specs through the
// parallel worker pool must produce an artifact byte-identical to the
// one-worker run — seed chains, adaptive picks, per-epoch stats and
// all.
func TestEpochSweepParallelMatchesSequential(t *testing.T) {
	specs := epochTestSweep().CellSpecs(3, 42)
	seq, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := Orchestrator{Workers: 4}.RunSweep(specs)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	engine := Orchestrator{Workers: 1}
	rawSeq, err := NewArtifact(engine, specs, seq, 0).StripTimings().JSON()
	if err != nil {
		t.Fatal(err)
	}
	rawPar, err := NewArtifact(engine, specs, par, 0).StripTimings().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(rawSeq) != string(rawPar) {
		t.Fatalf("parallel epoch sweep diverges from sequential:\n%s\nvs\n%s", rawPar, rawSeq)
	}

	// The cells genuinely carry the scenario: identity descriptor, epoch
	// aggregates, and a full 3-epoch history behind the flat totals.
	for i, c := range seq {
		if c.EpochStats == nil {
			t.Fatalf("cell %d has no epoch stats", i)
		}
		if c.EpochStats.Epochs != 3 || c.EpochStats.Fault != "crash" {
			t.Fatalf("cell %d epoch stats header wrong: %+v", i, c.EpochStats)
		}
		if c.EpochStats.AmortizedMessages <= 0 {
			t.Fatalf("cell %d measured nothing: %+v", i, c.EpochStats)
		}
	}
	// And the adaptive rung must diverge from the anchor (the traffic
	// condition is alive through the whole harness stack).
	if seq[0].Messages == seq[1].Messages {
		t.Fatal("adaptive epoch rung identical to the fault-free anchor")
	}
}

// TestEpochArtifactCells: scenario cells round-trip through the v6
// artifact with their descriptor and epoch aggregates intact.
func TestEpochArtifactCells(t *testing.T) {
	specs := epochTestSweep().CellSpecs(2, 7)
	cells, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArtifact(Orchestrator{Workers: 1}, specs, cells, 0)
	if a.Schema != ArtifactSchema || !strings.HasSuffix(a.Schema, "/v6") {
		t.Fatalf("schema %q, want the v6 current schema", a.Schema)
	}
	raw, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range back.Cells {
		if c.Scenario != "epochs=3,fault=crash" {
			t.Fatalf("cell %d scenario %q", i, c.Scenario)
		}
		if c.Epochs == nil || len(c.Epochs.PerEpochMessages) != 3 {
			t.Fatalf("cell %d epoch aggregates lost in the round trip: %+v", i, c.Epochs)
		}
	}
	if back.Cells[0].Adversary != "" || back.Cells[1].Adversary != "adaptive=1@1" {
		t.Fatalf("adversary identity wrong: %q, %q", back.Cells[0].Adversary, back.Cells[1].Adversary)
	}

	// The re-decoded epoch stats are byte-stable through another encode.
	raw2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatal("artifact not byte-stable through decode/encode")
	}
}

// TestSweepsPlanHasNoEpochSections pins the artifact matrix: the epochs
// experiment is a separate plan (its own BENCH_epochs.json), so the
// regression-gate baseline must never grow scenario cells.
func TestSweepsPlanHasNoEpochSections(t *testing.T) {
	for _, quick := range []bool{true, false} {
		p := SweepsPlan(quick, 0, 1)
		for i, spec := range p.Specs() {
			if spec.Opts.Epochs != nil {
				t.Fatalf("SweepsPlan(quick=%v) spec %d carries an epoch scenario", quick, i)
			}
		}
	}
}

// TestEpochsPlanShape: the epochs plan is scenario sections only, every
// cell carries its sweep's scenario, and the ladders are anchored.
func TestEpochsPlanShape(t *testing.T) {
	p, sweeps := EpochsPlan(true, 0, 1), EpochSweeps(true)
	if len(p.Sections) == 0 || len(p.Sections) != len(sweeps) {
		t.Fatalf("%d sections for %d epoch sweeps", len(p.Sections), len(sweeps))
	}
	for j, sec := range p.Sections {
		sweep := sweeps[j]
		if err := sweep.Opts.Epochs.Validate(); err != nil {
			t.Fatalf("section %q scenario invalid: %v", sec.Title, err)
		}
		if len(sec.Specs) != len(sweep.Specs) {
			t.Fatalf("section %q: %d cells for %d ladder rungs", sec.Title, len(sec.Specs), len(sweep.Specs))
		}
		if !sec.Specs[0].Opts.Adversary.IsZero() {
			t.Fatalf("section %q has no fault-free anchor", sec.Title)
		}
		adaptive := false
		for i, spec := range sec.Specs {
			if spec.Opts.Epochs == nil || *spec.Opts.Epochs != *sweep.Opts.Epochs {
				t.Fatalf("section %q cell %d lost its scenario", sec.Title, i)
			}
			if spec.Opts.Adversary.AdaptiveCrash > 0 {
				adaptive = true
			}
		}
		if !adaptive {
			t.Fatalf("section %q ladder has no adaptive rung", sec.Title)
		}
	}
}

// TestEpochCellStatsJSONShape pins the artifact field names of the epoch
// aggregates (trajectory tooling reads these).
func TestEpochCellStatsJSONShape(t *testing.T) {
	raw, err := json.Marshal(EpochStats{Epochs: 2, Fault: "crash", Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"epochs":2`, `"fault":"crash"`, `"trials":1`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("EpochStats JSON missing %s: %s", want, raw)
		}
	}
}

// TestRunAndReduce: RunEpochs histories fold deterministically into sane
// cell aggregates.
func TestRunAndReduce(t *testing.T) {
	sc := anonlead.Scenario{Epochs: 3}
	var hists []anonlead.EpochOutcome
	for trial := 0; trial < 2; trial++ {
		nw, err := anonlead.NewNetwork("complete", 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		eo, err := nw.RunEpochs(context.Background(), anonlead.ProtoFloodMax, sc,
			anonlead.WithSeed(uint64(100+trial)))
		if err != nil {
			t.Fatal(err)
		}
		hists = append(hists, eo)
	}
	es := reduceEpochs(sc, hists)
	if es.Trials != 2 || es.Epochs != 3 || es.Fault != "crash" {
		t.Fatalf("header wrong: %+v", es)
	}
	if es.ElectedRate != 1 {
		t.Fatalf("elected rate %v, want 1 (complete/8 floodmax always elects)", es.ElectedRate)
	}
	if len(es.PerEpochMessages) != 3 || len(es.PerEpochRounds) != 3 || len(es.PerEpochElected) != 3 {
		t.Fatalf("per-epoch profiles wrong length: %+v", es)
	}
	if es.AmortizedMessages <= 0 || es.AmortizedRounds <= 0 || es.MeanRecover <= 0 {
		t.Fatalf("aggregates not measured: %+v", es)
	}
	for e, n := range es.PerEpochElected {
		if n != 2 {
			t.Fatalf("epoch %d elected %d/2", e, n)
		}
	}

	// The fold is deterministic and depends only on the histories.
	if again := reduceEpochs(sc, hists); !reflect.DeepEqual(again, es) {
		t.Fatal("reduceEpochs not deterministic")
	}

	// And the stats serialize stably (artifact material).
	raw1, _ := json.Marshal(es)
	raw2, _ := json.Marshal(reduceEpochs(sc, hists))
	if string(raw1) != string(raw2) {
		t.Fatal("EpochStats JSON not byte-stable")
	}
}
