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
	rawSeq, err := NewArtifact(engine, specs, seq, 0).JSON()
	if err != nil {
		t.Fatal(err)
	}
	rawPar, err := NewArtifact(engine, specs, par, 0).JSON()
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
		if len(c.EpochStats.PerEpochMessages) != 3 {
			t.Fatalf("cell %d profiles %d epochs, want 3: %+v", i, len(c.EpochStats.PerEpochMessages), c.EpochStats)
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

// TestEpochCellsRoundTrip: scenario cells round-trip through the
// artifact with their descriptor and epoch aggregates intact.
func TestEpochCellsRoundTrip(t *testing.T) {
	specs := epochTestSweep().CellSpecs(2, 7)
	cells, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArtifact(Orchestrator{Workers: 1}, specs, cells, 0)
	if a.Schema != ArtifactSchema || !strings.HasSuffix(a.Schema, "/v7") {
		t.Fatalf("schema %q, want the v7 current schema", a.Schema)
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
		if c.EpochStats == nil || len(c.EpochStats.PerEpochMessages) != 3 {
			t.Fatalf("cell %d epoch aggregates lost in the round trip: %+v", i, c.EpochStats)
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
// aggregates (the report reads these): what the epochs measured, and
// nothing that restates the scenario or the cell's trials.
func TestEpochCellStatsJSONShape(t *testing.T) {
	raw, err := json.Marshal(EpochStats{})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"elected_rate":0,"amortized_messages":0,"amortized_rounds":0,"mean_recover":0,` +
		`"per_epoch_messages":null,"per_epoch_rounds":null,"per_epoch_elected":null}`
	if string(raw) != want {
		t.Fatalf("EpochStats JSON\n%s\nwant\n%s", raw, want)
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

// TestEpochCellCountsDroppedPackets: an epoch cell's flat metrics are its
// scenarios' summed Metrics, so a lossy scenario's dropped packets reach
// the cell: its Dropped is the per-trial mean of what the epochs of the
// same RunEpochs calls dropped.
func TestEpochCellCountsDroppedPackets(t *testing.T) {
	const root, trials = 7, 2
	w, adv := Workload{"expander", 32}, adversary.Spec{Loss: 0.1}
	sc := anonlead.Scenario{Epochs: 2, Revoke: true}
	cell, err := RunCell(ProtoFlood, w, TrialOpts{Trials: trials, Seed: root, Adversary: &adv, Epochs: &sc})
	if err != nil {
		t.Fatal(err)
	}
	var dropped int64
	for i := 0; i < trials; i++ {
		nw, err := anonlead.NewNetwork(w.Family, w.N, root)
		if err != nil {
			t.Fatal(err)
		}
		eo, err := nw.RunEpochs(context.Background(), string(ProtoFlood), sc,
			anonlead.WithSeed(TrialSeed(root, w, i)), anonlead.WithAdversary(adv))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range eo.Epochs {
			dropped += r.Dropped
		}
	}
	if want := float64(dropped) / trials; cell.Dropped <= 0 || cell.Dropped != want {
		t.Fatalf("epoch cell dropped %v, want the epochs' per-trial mean %v (> 0)", cell.Dropped, want)
	}
}
