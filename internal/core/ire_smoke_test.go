package core

import (
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
)

// mustBuild builds proto from pc through the registry, as every production
// caller does.
func mustBuild(t testing.TB, proto string, pc ProtoConfig) Runner {
	t.Helper()
	e, ok := Lookup(proto)
	if !ok {
		t.Fatalf("protocol %q not registered", proto)
	}
	r, err := e.Build(pc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return r
}

// runIRE executes one IRE election and returns the leader count plus
// per-node outputs.
func runIRE(t *testing.T, g *graph.Graph, cfg ProtoConfig, seed uint64) (int, []IREOutput, sim.Metrics) {
	t.Helper()
	r := mustBuild(t, "ire", cfg)
	nw := sim.New(sim.Config{Graph: g, Seed: seed}, r.Factory)
	nw.Run(r.Budget)
	if !nw.AllHalted() {
		t.Fatalf("network did not halt within %d rounds", r.Budget)
	}
	outs := make([]IREOutput, g.N())
	leaders := 0
	for v := 0; v < g.N(); v++ {
		outs[v] = nw.Machine(v).(*IREMachine).Output()
		if outs[v].Leader {
			leaders++
		}
	}
	return leaders, outs, nw.Metrics()
}

func TestIRESmokeCompleteGraph(t *testing.T) {
	g := graph.Complete(32)
	prof, err := spectral.ProfileGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProtoConfig{N: g.N(), TMix: prof.MixingTime, Phi: prof.Conductance}
	wins := 0
	const trials = 20
	for s := uint64(0); s < trials; s++ {
		leaders, outs, _ := runIRE(t, g, cfg, 1000+s)
		cands := 0
		for _, o := range outs {
			if o.Candidate {
				cands++
			}
		}
		t.Logf("seed=%d leaders=%d candidates=%d", s, leaders, cands)
		if leaders == 1 {
			wins++
		}
	}
	if wins < trials*8/10 {
		t.Fatalf("unique-leader rate too low: %d/%d", wins, trials)
	}
}

func TestIRESmokeCycle(t *testing.T) {
	g := graph.Cycle(24)
	prof, err := spectral.ProfileGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProtoConfig{N: g.N(), TMix: prof.MixingTime, Phi: prof.Conductance}
	wins := 0
	const trials = 10
	for s := uint64(0); s < trials; s++ {
		leaders, _, _ := runIRE(t, g, cfg, 2000+s)
		t.Logf("seed=%d leaders=%d", s, leaders)
		if leaders == 1 {
			wins++
		}
	}
	if wins < trials*7/10 {
		t.Fatalf("unique-leader rate too low: %d/%d", wins, trials)
	}
}
