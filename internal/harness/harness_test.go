package harness

import (
	"reflect"
	"testing"

	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/spectral"
)

func TestWorkloadBuildDeterministic(t *testing.T) {
	w := Workload{Family: "expander", N: 32}
	g1, err := graph.Seeded(w.Family, w.N, 5)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Seeded(w.Family, w.N, 5)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("sizes differ")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRunCellIRE(t *testing.T) {
	cell, err := RunCell(ProtoIRE, Workload{Family: "complete", N: 24}, TrialOpts{Trials: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Trials != 4 {
		t.Fatalf("trials %d", cell.Trials)
	}
	if cell.Successes < 3 {
		t.Fatalf("successes %d/4", cell.Successes)
	}
	if cell.Messages <= 0 || cell.Rounds <= 0 || cell.Charged <= 0 {
		t.Fatalf("degenerate means: %+v", cell)
	}
	if cell.SuccessRate() != float64(cell.Successes)/4 {
		t.Fatal("success rate arithmetic")
	}
}

func TestRunCellBaselines(t *testing.T) {
	for _, p := range []Protocol{ProtoFlood, ProtoAllFlood, ProtoWalkNotify} {
		cell, err := RunCell(p, Workload{Family: "torus", N: 16}, TrialOpts{Trials: 3, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if cell.Trials != 3 || cell.Messages <= 0 {
			t.Fatalf("%s: %+v", p, cell)
		}
	}
}

func TestRunCellRevocable(t *testing.T) {
	cell, err := RunCell(ProtoRevocable, Workload{Family: "complete", N: 3}, TrialOpts{
		Trials: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Successes != 2 {
		t.Fatalf("revocable successes %d/2", cell.Successes)
	}
}

func TestRunCellUnknownProtocol(t *testing.T) {
	if _, err := RunCell(Protocol("nope"), Workload{Family: "cycle", N: 8}, TrialOpts{Trials: 1}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunCellBadFamily(t *testing.T) {
	if _, err := RunCell(ProtoIRE, Workload{Family: "nosuch", N: 8}, TrialOpts{Trials: 1}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestTable1SweepAndRender(t *testing.T) {
	// The path lebench takes: SweepSpecs -> RunSweep -> NewArtifact, which
	// internal/report renders (its golden test pins the columns).
	specs := SweepSpecs(ProtoIRE, "complete", []int{16, 24}, TrialOpts{Trials: 2, Seed: 7})
	cells, err := Orchestrator{}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	rows := NewArtifact(Orchestrator{}, specs, cells, 0).Cells
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.PredictedMsgs <= 0 || r.PredictedTime <= 0 {
			t.Fatalf("predictions missing: %+v", r)
		}
	}
}

func TestPredictionFormulas(t *testing.T) {
	_, prof, err := prepareCell(Workload{Family: "cycle", N: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Protocols() {
		if m := predictMsgs(p, prof); m <= 0 {
			t.Fatalf("%s message prediction %v", p, m)
		}
		if tt := predictTime(p, prof); tt <= 0 {
			t.Fatalf("%s time prediction %v", p, tt)
		}
	}
	// The paper's core comparison: our bound beats the Gilbert bound by
	// √(tmix·Φ) ≥ 1 on every graph.
	ours := predictMsgs(ProtoIRE, prof)
	gilbert := predictMsgs(ProtoWalkNotify, prof)
	if ours > gilbert {
		t.Fatalf("IRE prediction %v above Gilbert %v", ours, gilbert)
	}
}

func TestSplitBrainExperimentSmall(t *testing.T) {
	points, err := SplitBrainExperiment(8, []int{1}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points %d", len(points))
	}
	pt := points[0]
	if pt.Trials != 2 {
		t.Fatalf("trials %d", pt.Trials)
	}
	if pt.MeanLeaders < 1 {
		t.Fatalf("mean leaders %v: the wheel should elect plenty", pt.MeanLeaders)
	}
}

func TestAblationCautiousRuns(t *testing.T) {
	w := Workload{Family: "complete", N: 32}
	points, _, err := AblationCautious(w, []int{2, 8}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points %d", len(points))
	}
	// Larger x must produce a larger cap and not-smaller mean territory.
	if points[1].CapSize <= points[0].CapSize {
		t.Fatalf("cap not increasing: %+v", points)
	}
	if points[1].MeanTerritory < points[0].MeanTerritory/2 {
		t.Fatalf("territory collapsed at larger x: %+v", points)
	}
}

func TestAblationWalksRuns(t *testing.T) {
	w := Workload{Family: "complete", N: 24}
	factors := []float64{0.5, 1, 2}
	points, err := AblationWalks(Orchestrator{Workers: 3}, w, factors, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points %d", len(points))
	}
	if points[0].X >= points[1].X || points[1].X >= points[2].X {
		t.Fatalf("x not scaled by factor: %+v", points)
	}
	if c := points[1].Cell; c.Successes != c.Trials {
		t.Fatalf("the paper's x (factor 1) elected %d/%d", c.Successes, c.Trials)
	}
	// The series is nothing but a sweep: its cells are the cells of its specs.
	direct, err := Orchestrator{Workers: 1}.RunSweep(walkSpecs(w, factors, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if !reflect.DeepEqual(p.Cell, direct[i]) {
			t.Fatalf("factor %v: cell differs from a direct RunSweep:\n%+v\nvs\n%+v", p.Factor, p.Cell, direct[i])
		}
	}
}

func TestAblationDiffusionDetectorRegimes(t *testing.T) {
	w := Workload{Family: "cycle", N: 8}
	points, err := AblationDiffusion(w, 0.5, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 5: once k^{1+ε} >= 2n+1 (and a white node exists), no alarm.
	for _, p := range points {
		if !p.TheoryLow && p.Whites >= 1 && p.AlarmFired {
			t.Fatalf("alarm fired in the safe regime: %+v", p)
		}
	}
}

// TestAblationDiffusionUsesProtocolSchedule: X3 evolves the Revocable
// machine's own diffusion schedule — r(k) rounds against threshold τ(k) as
// core resolves them for this ε and the graph's i(G) — for every estimate
// whose r(k) fits under the simulation cap.
func TestAblationDiffusionUsesProtocolSchedule(t *testing.T) {
	w := Workload{Family: "cycle", N: 16}
	const eps, seed = 0.5, 1
	points, err := AblationDiffusion(w, eps, 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Seeded(w.Family, w.N, seed)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := spectral.ProfileGraph(g, seed)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := core.ResolveRevocable(core.ProtoConfig{Epsilon: eps, Iso: prof.Isoperimetric})
	if err != nil {
		t.Fatal(err)
	}
	uncapped := 0
	for _, p := range points {
		_, tau, r, _ := schedule(p.K)
		if p.Tau != tau {
			t.Errorf("k=%d: X3 thresholds at %v, the protocol at τ(k)=%v", p.K, p.Tau, tau)
		}
		if r > 2_000_000 {
			continue
		}
		uncapped++
		if p.Rounds != r {
			t.Errorf("k=%d: X3 evolved %d rounds, the protocol diffuses r(k)=%d", p.K, p.Rounds, r)
		}
	}
	if uncapped == 0 {
		t.Fatal("every estimate hit the simulation cap; nothing compared")
	}
}

func TestTrialOptsIREOverride(t *testing.T) {
	// Custom C propagates into the protocol (more candidates => more
	// broadcast executions => more messages).
	lo, err := RunCell(ProtoIRE, Workload{Family: "complete", N: 32},
		TrialOpts{Trials: 2, Seed: 9, Proto: core.ProtoConfig{C: 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := RunCell(ProtoIRE, Workload{Family: "complete", N: 32},
		TrialOpts{Trials: 2, Seed: 9, Proto: core.ProtoConfig{C: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if hi.Messages <= lo.Messages {
		t.Fatalf("C override had no effect: lo=%v hi=%v", lo.Messages, hi.Messages)
	}
}

func TestRunCellExplicit(t *testing.T) {
	cell, err := RunCell(ProtoExplicit, Workload{Family: "torus", N: 16}, TrialOpts{Trials: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Successes < 2 {
		t.Fatalf("explicit successes %d/3", cell.Successes)
	}
	// Explicit costs strictly more than implicit on the same cell/seeds.
	impl, err := RunCell(ProtoIRE, Workload{Family: "torus", N: 16}, TrialOpts{Trials: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Messages <= impl.Messages {
		t.Fatalf("explicit %v msgs not above implicit %v", cell.Messages, impl.Messages)
	}
}

func TestRunCellDeterministic(t *testing.T) {
	opts := TrialOpts{Trials: 3, Seed: 17}
	a, err := RunCell(ProtoIRE, Workload{Family: "expander", N: 32}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(ProtoIRE, Workload{Family: "expander", N: 32}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.Successes != b.Successes || a.Rounds != b.Rounds {
		t.Fatalf("cells differ: %+v vs %+v", a, b)
	}
}
