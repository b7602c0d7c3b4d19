package core

import (
	"fmt"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
	"anonlead/internal/trace"
)

// TestIREWithForcedIDCollisions shrinks the ID space so candidate ID
// collisions are common. The protocol's whp-uniqueness argument breaks by
// design (two max-ID candidates both win), but execution must stay safe:
// halt on schedule, never elect a non-candidate, and still elect the max.
func TestIREWithForcedIDCollisions(t *testing.T) {
	g := graph.Complete(32)
	cfg := profiledConfig(t, g)
	cfg.MaxID = 4 // IDs from {1..4}: collisions guaranteed among ~7 candidates
	multi, unique := 0, 0
	for s := uint64(0); s < 10; s++ {
		leaders, outs, _ := runIRE(t, g, cfg, 4200+s)
		var maxCand uint64
		for _, o := range outs {
			if o.Candidate && o.ID > maxCand {
				maxCand = o.ID
			}
		}
		for v, o := range outs {
			if o.Leader && !o.Candidate {
				t.Fatalf("seed %d: non-candidate %d elected", s, v)
			}
			if o.Leader && o.ID != maxCand {
				t.Fatalf("seed %d: leader ID %d is not the max %d", s, o.ID, maxCand)
			}
		}
		switch {
		case leaders > 1:
			multi++
		case leaders == 1:
			unique++
		}
	}
	if multi == 0 {
		t.Log("no collision-induced multi-leader outcome in 10 seeds (possible but unlikely)")
	}
	if multi+unique == 0 {
		t.Fatal("no leaders at all across seeds")
	}
}

// TestIREPaperExactCongestBudget runs with CongestBits=1 — the paper's
// conservative bit-by-bit accounting — and checks the charged time scales
// with the message bit volume while the protocol outcome is unchanged.
func TestIREPaperExactCongestBudget(t *testing.T) {
	g := graph.Complete(24)
	cfg := profiledConfig(t, g)
	r := mustBuild(t, "ire", cfg)
	run := func(budget int) (int, sim.Metrics) {
		nw := sim.New(sim.Config{Graph: g, Seed: 5, CongestBits: budget}, r.Factory)
		nw.Run(r.Budget)
		leaders := 0
		for v := 0; v < g.N(); v++ {
			if nw.Machine(v).(*IREMachine).Output().Leader {
				leaders++
			}
		}
		return leaders, nw.Metrics()
	}
	leadersWide, wide := run(0) // default 8⌈log n⌉
	leadersBit, bit := run(1)   // 1 bit per link per round
	if leadersWide != leadersBit {
		t.Fatalf("outcome depends on budget: %d vs %d leaders", leadersWide, leadersBit)
	}
	if bit.Messages != wide.Messages || bit.Bits != wide.Bits {
		t.Fatal("message accounting must not depend on the budget")
	}
	if bit.ChargedRounds <= wide.ChargedRounds {
		t.Fatalf("bit-serial charge %d not above wide-budget charge %d", bit.ChargedRounds, wide.ChargedRounds)
	}
}

// TestIRETraceEvents cross-checks the trace stream against protocol
// outputs: candidate and leader events must match the output flags
// exactly.
func TestIRETraceEvents(t *testing.T) {
	g := graph.Torus(4, 4)
	cfg := profiledConfig(t, g)
	r := mustBuild(t, "ire", cfg)
	rec := trace.NewRing(4096)
	nw := sim.New(sim.Config{Graph: g, Seed: 9, Trace: rec}, r.Factory)
	nw.Run(r.Budget)
	cands, leaders := 0, 0
	for v := 0; v < g.N(); v++ {
		o := nw.Machine(v).(*IREMachine).Output()
		if o.Candidate {
			cands++
		}
		if o.Leader {
			leaders++
		}
	}
	if got := rec.Count("candidate"); got != int64(cands) {
		t.Fatalf("candidate events %d want %d", got, cands)
	}
	if got := rec.Count("leader"); got != int64(leaders) {
		t.Fatalf("leader events %d want %d", got, leaders)
	}
	// Leader events fire at the decide round.
	for _, e := range rec.Filter("leader") {
		if total := r.Budget - 4; e.Round != total {
			t.Fatalf("leader event at round %d want %d", e.Round, total)
		}
	}
}

// TestRevocableTraceChooseEvents verifies every node traces exactly one
// choose event carrying its final certificate.
func TestRevocableTraceChooseEvents(t *testing.T) {
	g := graph.Complete(3)
	r := mustBuild(t, "revocable", ProtoConfig{Epsilon: 0.5, Iso: 1.5})
	rec := trace.NewRing(64)
	nw := sim.New(sim.Config{Graph: g, Seed: 4, Trace: rec}, r.Factory)
	nw.RunUntil(40_000_000, func(completed int) bool {
		return completed%64 == 0 && revConverged(nw, 0.5)
	})
	if !revConverged(nw, 0.5) {
		t.Fatal("did not converge")
	}
	if got := rec.Count("choose"); got != int64(g.N()) {
		t.Fatalf("choose events %d want %d", got, g.N())
	}
	for v := 0; v < g.N(); v++ {
		o := nw.Machine(v).(*RevocableMachine).Output()
		want := fmt.Sprintf("id=%d k=%d", o.ID, o.K)
		found := false
		for _, e := range rec.Filter("choose") {
			if e.Node == v && e.Detail == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d: no choose event %q", v, want)
		}
	}
}

// TestIREStarHubAdversary uses the star, where a single hub relays all
// traffic — the extreme multiplexing case. The protocol must stay within
// the CONGEST slot accounting and still elect.
func TestIREStarHubAdversary(t *testing.T) {
	g := graph.Star(48)
	cfg := profiledConfig(t, g)
	wins := 0
	for s := uint64(0); s < 8; s++ {
		leaders, _, met := runIRE(t, g, cfg, 8800+s)
		if leaders == 1 {
			wins++
		}
		if met.MaxChannels > 0 && met.MaxLinkSlots < met.MaxChannels {
			t.Fatalf("slot accounting below channel count: %+v", met)
		}
	}
	if wins < 6 {
		t.Fatalf("star wins %d/8", wins)
	}
}
