package harness

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestRoundProfileMatchesCellTotals cross-checks the profile against the
// cell's own aggregates: summed per-round messages must equal the trials'
// total messages, and round counts must line up.
func TestRoundProfileMatchesCellTotals(t *testing.T) {
	w := Workload{Family: "torus", N: 16}
	cell, err := RunCell(ProtoFlood, w, TrialOpts{Trials: 4, Seed: 9, RoundProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	rp := cell.RoundProf
	if rp == nil {
		t.Fatal("no round profile")
	}
	if got, want := float64(rp.TotalMsgs), cell.Messages*float64(cell.Trials); got != want {
		t.Fatalf("profile TotalMsgs %v != cell total messages %v", got, want)
	}
	if got, want := float64(rp.Rounds), cell.Rounds*float64(cell.Trials); got != want {
		t.Fatalf("profile Rounds %v != cell total rounds %v", got, want)
	}
	var bucketed int64
	for _, c := range rp.MsgRounds {
		bucketed += c
	}
	if bucketed != rp.Rounds {
		t.Fatalf("MsgRounds buckets cover %d rounds, profile has %d", bucketed, rp.Rounds)
	}
	if rp.PeakRound < 1 || rp.PeakMsgs <= 0 {
		t.Fatalf("degenerate peak: %d@%d", rp.PeakMsgs, rp.PeakRound)
	}
}

// TestRoundProfileOffByDefault pins the byte-identity constraint: without
// the opt-in, no trial pays for or carries a profile and the artifact cell
// serializes without a round_profile key.
func TestRoundProfileOffByDefault(t *testing.T) {
	cell, err := RunCell(ProtoFlood, Workload{Family: "cycle", N: 8}, TrialOpts{Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cell.RoundProf != nil {
		t.Fatal("round profile attached without opt-in")
	}
	art := NewArtifact(Orchestrator{}, []CellSpec{{Protocol: ProtoFlood, Workload: cell.Workload}},
		[]Cell{cell}, 0)
	buf, err := json.Marshal(art.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["round_profile"]; ok {
		t.Fatal("unprofiled cell serialized a round_profile key")
	}
}

// TestRoundProfileParallelMatchesSequential proves the orchestrator's
// sharded execution merges trial profiles into the same cell profile as
// the one-worker run (trial-index merge order, not completion order).
func TestRoundProfileParallelMatchesSequential(t *testing.T) {
	specs := []CellSpec{
		{Protocol: ProtoIRE, Workload: Workload{Family: "expander", N: 20},
			Opts: TrialOpts{Trials: 6, Seed: 11, RoundProfile: true}},
		{Protocol: ProtoFlood, Workload: Workload{Family: "torus", N: 16},
			Opts: TrialOpts{Trials: 6, Seed: 11, RoundProfile: true}},
	}
	seq, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Orchestrator{Workers: 4}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !reflect.DeepEqual(seq[i].RoundProf, par[i].RoundProf) {
			t.Errorf("spec %d: parallel profile %+v != sequential %+v",
				i, par[i].RoundProf, seq[i].RoundProf)
		}
	}
}

// TestArtifactRoundProfileRoundTrips pins the round_profile section: a profiled
// cell's round_profile survives NewArtifact → JSON → ReadArtifact.
func TestArtifactRoundProfileRoundTrips(t *testing.T) {
	spec := CellSpec{Protocol: ProtoFlood, Workload: Workload{Family: "cycle", N: 8},
		Opts: TrialOpts{Trials: 2, Seed: 5, RoundProfile: true}}
	cell, err := RunCell(spec.Protocol, spec.Workload, spec.Opts)
	if err != nil {
		t.Fatal(err)
	}
	art := NewArtifact(Orchestrator{}, []CellSpec{spec}, []Cell{cell}, 0)
	if art.Schema != ArtifactSchema {
		t.Fatalf("schema %q", art.Schema)
	}
	buf, err := art.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Cells[0].RoundProf, cell.RoundProf) {
		t.Fatalf("round profile did not round-trip:\nwrote %+v\nread  %+v",
			cell.RoundProf, back.Cells[0].RoundProf)
	}
}
