package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"anonlead/internal/adversary"
	"anonlead/internal/obs"
)

// determinismSpecs is a small cross-protocol, cross-family sweep matrix
// used by the bit-identity tests, including fault-injected cells: the
// adversary layer must be exactly as independent of the worker count as
// the protocols underneath it.
func determinismSpecs(seed uint64) []CellSpec {
	opts := TrialOpts{Trials: 4, Seed: seed}
	faulty := TrialOpts{Trials: 4, Seed: seed, Adversary: &adversary.Spec{
		Loss: 0.1, CrashFraction: 0.2, CrashBy: 8, DelayProb: 0.3, MaxDelay: 2}}
	churny := TrialOpts{Trials: 4, Seed: seed, Adversary: &adversary.Spec{
		Churn: 0.3, ChurnPreserve: true}}
	return []CellSpec{
		{Protocol: ProtoIRE, Workload: Workload{Family: "expander", N: 32}, Opts: opts},
		{Protocol: ProtoIRE, Workload: Workload{Family: "cycle", N: 16}, Opts: opts},
		{Protocol: ProtoIRE, Workload: Workload{Family: "diam2", N: 17}, Opts: opts},
		{Protocol: ProtoFlood, Workload: Workload{Family: "complete", N: 16}, Opts: opts},
		{Protocol: ProtoWalkNotify, Workload: Workload{Family: "torus", N: 16}, Opts: opts},
		{Protocol: ProtoIRE, Workload: Workload{Family: "expander", N: 32}, Opts: faulty},
		{Protocol: ProtoFlood, Workload: Workload{Family: "complete", N: 16}, Opts: churny},
	}
}

// TestParallelHarnessDeterminism is the acceptance gate of the orchestrator:
// a sweep fanned out over a sharded worker pool must produce output
// byte-identical to the one-worker run for the same root seed — same
// cells, same JSON artifact — and to each cell swept on its own. (What a
// cell is held to independently of the orchestrator is
// TestHarnessTrialEqualsPublicRun.)
func TestParallelHarnessDeterminism(t *testing.T) {
	specs := determinismSpecs(17)
	seq, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	// Four trials per cell: 2, 3 and 8 workers cut them into 2, 2 and 4 shards.
	for _, o := range []Orchestrator{{Workers: 8}, {Workers: 3}, {Workers: 2}} {
		par, err := o.RunSweep(specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: cells differ from one worker:\nseq: %+v\npar: %+v",
				o.Workers, seq, par)
		}
		// The artifact (what every report renders from) must match byte
		// for byte.
		seqJSON, err := NewArtifact(o, specs, seq, 0).JSON()
		if err != nil {
			t.Fatal(err)
		}
		parJSON, err := NewArtifact(o, specs, par, 0).JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqJSON, parJSON) {
			t.Fatalf("JSON artifacts differ:\n%s\nvs\n%s", seqJSON, parJSON)
		}
	}

	// A cell's numbers do not depend on which other cells run beside it:
	// -exp table1 is a subset of -exp sweeps and benchdiff aligns the two.
	for i := range specs {
		alone, err := Orchestrator{Workers: 2}.RunSweep(specs[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq[i], alone[0]) {
			t.Fatalf("cell %d swept alone differs from the full sweep:\nfull:  %+v\nalone: %+v", i, seq[i], alone[0])
		}
	}
}

// TestZeroRateAdversaryArtifactByteIdentical is the adversary subsystem's
// regression contract: configuring a zero-rate adversary on every cell of
// a sweep must produce a JSON artifact byte-identical to the unperturbed
// sweep — same trials, same metrics, same (absent) adversary descriptors.
func TestZeroRateAdversaryArtifactByteIdentical(t *testing.T) {
	plain := determinismSpecs(23)[:5] // the fault-free cells
	zeroed := determinismSpecs(23)[:5]
	for i := range zeroed {
		zeroed[i].Opts.Adversary = &adversary.Spec{}
	}
	o := Orchestrator{Workers: 4}
	baseCells, err := o.RunSweep(plain)
	if err != nil {
		t.Fatal(err)
	}
	zeroCells, err := o.RunSweep(zeroed)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, err := NewArtifact(o, plain, baseCells, 0).JSON()
	if err != nil {
		t.Fatal(err)
	}
	zeroJSON, err := NewArtifact(o, zeroed, zeroCells, 0).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseJSON, zeroJSON) {
		t.Fatalf("zero-rate adversary changed the artifact:\n%s\nvs\n%s", baseJSON, zeroJSON)
	}
}

// TestTrialSeedSplitting checks the per-trial seed derivation is a pure
// function of (root, cell, trial) and separates streams across all three.
func TestTrialSeedSplitting(t *testing.T) {
	w := Workload{Family: "cycle", N: 16}
	if TrialSeed(1, w, 0) != TrialSeed(1, w, 0) {
		t.Fatal("TrialSeed not deterministic")
	}
	seen := map[uint64]string{}
	add := func(s uint64, what string) {
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", prev, what)
		}
		seen[s] = what
	}
	for tr := 0; tr < 8; tr++ {
		add(TrialSeed(1, w, tr), "trial variation")
	}
	add(TrialSeed(2, w, 0), "root variation")
	add(TrialSeed(1, Workload{Family: "cycle", N: 17}, 0), "size variation")
	add(TrialSeed(1, Workload{Family: "torus", N: 16}, 0), "family variation")
}

// TestOrchestratorShutdownOnTrialError checks the pool stops on a failing
// trial, drains cleanly (no hang), and reports a useful error even when
// healthy cells surround the poisoned one.
func TestOrchestratorShutdownOnTrialError(t *testing.T) {
	opts := TrialOpts{Trials: 3, Seed: 5}
	specs := []CellSpec{
		{Protocol: ProtoIRE, Workload: Workload{Family: "cycle", N: 8}, Opts: opts},
		{Protocol: Protocol("nope"), Workload: Workload{Family: "cycle", N: 8}, Opts: opts},
		{Protocol: ProtoIRE, Workload: Workload{Family: "complete", N: 8}, Opts: opts},
		{Protocol: ProtoIRE, Workload: Workload{Family: "torus", N: 9}, Opts: opts},
	}
	done := make(chan error, 1)
	go func() {
		_, err := Orchestrator{Workers: 4}.RunSweep(specs)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("poisoned sweep returned nil error")
		}
		if !strings.Contains(err.Error(), "nope") {
			t.Fatalf("error does not name the bad protocol: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker pool did not shut down on trial error")
	}

	// A build-phase failure (unknown family) shuts down the same way.
	specs[1] = CellSpec{Protocol: ProtoIRE, Workload: Workload{Family: "nosuch", N: 8}, Opts: opts}
	if _, err := (Orchestrator{Workers: 2}).RunSweep(specs); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("build error not surfaced: %v", err)
	}
}

// TestOrchestratorStreamsCells checks OnCell fires exactly once per spec
// with the same cell the result slice carries.
func TestOrchestratorStreamsCells(t *testing.T) {
	specs := determinismSpecs(11)
	var mu sync.Mutex
	streamed := map[int]Cell{}
	o := Orchestrator{Workers: 4, OnCell: func(i int, c Cell) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := streamed[i]; dup {
			t.Errorf("cell %d streamed twice", i)
		}
		streamed[i] = c
	}}
	cells, err := o.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(specs) {
		t.Fatalf("streamed %d cells, want %d", len(streamed), len(specs))
	}
	for i, c := range cells {
		if !reflect.DeepEqual(streamed[i], c) {
			t.Fatalf("streamed cell %d differs from returned cell", i)
		}
	}
}

// TestArtifactGolden pins the BENCH_harness.json format: a fixed-seed sweep
// must serialize to exactly the committed golden bytes.
func TestArtifactGolden(t *testing.T) {
	opts := TrialOpts{Trials: 2, Seed: 5}
	specs := []CellSpec{
		{Protocol: ProtoIRE, Workload: Workload{Family: "complete", N: 16}, Opts: opts},
		{Protocol: ProtoFlood, Workload: Workload{Family: "diam2", N: 17}, Opts: opts},
		{Protocol: ProtoIRE, Workload: Workload{Family: "cycle", N: 12},
			Opts: TrialOpts{Trials: 2, Seed: 5, PresumedN: 6}},
		{Protocol: ProtoFlood, Workload: Workload{Family: "complete", N: 16},
			Opts: TrialOpts{Trials: 2, Seed: 5,
				Adversary: &adversary.Spec{Loss: 0.2, CrashFraction: 0.25, CrashBy: 4}}},
	}
	o := Orchestrator{Workers: 2}
	cells, err := o.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewArtifact(o, specs, cells, 0).JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "bench_harness_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact drifted from golden (UPDATE_GOLDEN=1 regenerates):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestArtifactTimings checks that neither the wall clock nor the pool size
// reaches the artifact: NewArtifact ignores both, so any run of a sweep
// writes the same bytes.
func TestArtifactTimings(t *testing.T) {
	opts := TrialOpts{Trials: 3, Seed: 5}
	specs := []CellSpec{{Protocol: ProtoIRE, Workload: Workload{Family: "cycle", N: 8}, Opts: opts}}
	cells, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArtifact(Orchestrator{}, specs, cells, 0)
	fast, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewArtifact(Orchestrator{Workers: 3}, specs, cells, 2*time.Second).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast, slow) {
		t.Fatalf("pool size or elapsed time changed the artifact:\n%s\nvs\n%s", fast, slow)
	}
	if a.RootSeed != 5 {
		t.Fatalf("root seed %v", a.RootSeed)
	}
}

// TestArtifactWriteFile round-trips the artifact through a file.
func TestArtifactWriteFile(t *testing.T) {
	a := Artifact{Schema: ArtifactSchema, RootSeed: 1}
	path := filepath.Join(t.TempDir(), "BENCH_harness.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), ArtifactSchema) {
		t.Fatalf("artifact file missing schema:\n%s", buf)
	}
}

// TestAblationKnowledge checks the X4 sweep the way lebench runs it —
// KnowledgeSpecs through the pool into the artifact: truthful n succeeds
// and the presumed sizes scale with the factor and reach the cells.
func TestAblationKnowledge(t *testing.T) {
	w := Workload{Family: "complete", N: 24}
	factors := []float64{0.5, 1, 2}
	specs := KnowledgeSpecs(w, factors, 3, 9)
	cells, err := Orchestrator{Workers: 4}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	points := NewArtifact(Orchestrator{}, specs, cells, 0).Cells
	if len(points) != 3 {
		t.Fatalf("points %d", len(points))
	}
	if points[0].PresumedN != 12 || points[1].PresumedN != 24 || points[2].PresumedN != 48 {
		t.Fatalf("presumed sizes wrong: %+v", points)
	}
	if points[1].Successes < 2 {
		t.Fatalf("truthful-n success %d/3", points[1].Successes)
	}
}

// TestPresumedNChangesProtocolBehavior pins that the knowledge knob reaches
// the protocol: a larger presumed n stretches the IRE schedule (more
// rounds) on the same graph and seeds.
func TestPresumedNChangesProtocolBehavior(t *testing.T) {
	w := Workload{Family: "complete", N: 16}
	truth, err := RunCell(ProtoIRE, w, TrialOpts{Trials: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := RunCell(ProtoIRE, w, TrialOpts{Trials: 2, Seed: 3, PresumedN: 64})
	if err != nil {
		t.Fatal(err)
	}
	if inflated.Rounds <= truth.Rounds {
		t.Fatalf("presumed n=64 rounds %v not above truthful %v", inflated.Rounds, truth.Rounds)
	}
}

// TestSweepSpansUnderTelemetry runs a two-worker sweep with telemetry on —
// the span log's only concurrent writers, which make race runs — and
// counts its spans: one prepare and one profile per distinct workload, one
// trials span per shard and one reduce per cell.
func TestSweepSpansUnderTelemetry(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	specs := []CellSpec{
		{Protocol: ProtoIRE, Workload: Workload{Family: "complete", N: 16}, Opts: TrialOpts{Trials: 4, Seed: 9}},
		{Protocol: ProtoFlood, Workload: Workload{Family: "complete", N: 16}, Opts: TrialOpts{Trials: 4, Seed: 9}},
		{Protocol: ProtoFlood, Workload: Workload{Family: "cycle", N: 12}, Opts: TrialOpts{Trials: 3, Seed: 9}},
	}
	before := len(obs.SpanEvents())
	if _, err := (Orchestrator{Workers: 2}).RunSweep(specs); err != nil {
		t.Fatal(err)
	}
	events := obs.SpanEvents()[before:]
	count := map[string]int{}
	for _, e := range events {
		count[e.Phase]++
		if e.Detail != "complete/16" && e.Detail != "cycle/12" {
			t.Fatalf("span %+v names no cell of the sweep", e)
		}
	}
	// Two workloads; each cell's trials cut into two shards.
	want := map[string]int{"prepare": 2, "profile": 2, "trials": 6, "reduce": 3}
	if !reflect.DeepEqual(count, want) || len(events) != 13 {
		t.Fatalf("span counts %v (%d events), want %v", count, len(events), want)
	}
}
