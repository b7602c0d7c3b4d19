package core

import (
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// TestIREWithForcedIDCollisions shrinks the ID space so candidate ID
// collisions are common. The protocol's whp-uniqueness argument breaks by
// design (two max-ID candidates both win), but execution must stay safe:
// halt on schedule, never elect a non-candidate, and still elect the max.
// The ID space is always [1, n⁴] in production, so the machines are built
// here from resolveIRE's params with the space cut to {1..4}.
func TestIREWithForcedIDCollisions(t *testing.T) {
	g := graph.Complete(32)
	p, err := resolveIRE(profiledConfig(t, g))
	if err != nil {
		t.Fatal(err)
	}
	p.cand.MaxID = 4 // collisions guaranteed among ~7 candidates
	multi, unique := 0, 0
	for s := uint64(0); s < 10; s++ {
		nw := sim.New(sim.Config{Graph: g, Seed: 4200 + s}, func(node, degree int, r *rng.RNG) sim.Machine {
			m := new(IREMachine)
			m.setup(&p, make([]int, degree))
			return m
		})
		nw.Run(p.total + 4)
		if !nw.AllHalted() {
			t.Fatalf("seed %d: network did not halt within %d rounds", s, p.total+4)
		}
		outs := make([]IREOutput, g.N())
		leaders := 0
		for v := range outs {
			if outs[v] = nw.Machine(v).(*IREMachine).Output(); outs[v].Leader {
				leaders++
			}
		}
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

// TestIREDecideRound reads every node's output after each round: the
// candidate flags are fixed by Init, no node is leader before the decide
// round Budget-4, and every leader is a candidate that set its flag in
// exactly that round.
func TestIREDecideRound(t *testing.T) {
	g := graph.Torus(4, 4)
	cfg := profiledConfig(t, g)
	r := mustBuild(t, "ire", cfg)
	nw := sim.New(sim.Config{Graph: g, Seed: 9}, r.Factory)
	decide := r.Budget - 4
	cand := make([]bool, g.N())
	for v := range cand {
		cand[v] = nw.Machine(v).(*IREMachine).Output().Candidate
	}
	nw.RunUntil(r.Budget, func(completed int) bool {
		for v := 0; v < g.N(); v++ {
			o := nw.Machine(v).(*IREMachine).Output()
			if o.Candidate != cand[v] {
				t.Fatalf("node %d: candidate flag changed after Init (round %d)", v, completed-1)
			}
			if o.Leader && completed-1 < decide {
				t.Fatalf("node %d: leader after round %d, before the decide round %d", v, completed-1, decide)
			}
		}
		return false
	})
	leaders := 0
	for v := 0; v < g.N(); v++ {
		o := nw.Machine(v).(*IREMachine).Output()
		if !o.Leader {
			continue
		}
		leaders++
		if !o.Candidate || o.HaltRound != decide {
			t.Fatalf("node %d: leader with candidate=%v halt round %d, want a candidate deciding at %d", v, o.Candidate, o.HaltRound, decide)
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
}

// TestRevocableChoiceIsFinal reads every node's output after each round of
// a run to convergence: once a node has chosen, its (ID, K) never changes;
// at the end every node has chosen, K is an estimate the node has passed
// through, and the leader certificate all nodes agree on is one node's
// own — the largest K, ties to the smallest ID.
func TestRevocableChoiceIsFinal(t *testing.T) {
	g := graph.Complete(3)
	r := mustBuild(t, "revocable", ProtoConfig{Epsilon: 0.5, Iso: 1.5})
	nw := sim.New(sim.Config{Graph: g, Seed: 4}, r.Factory)
	first := make([]RevocableOutput, g.N())
	nw.RunUntil(40_000_000, func(completed int) bool {
		for v := range first {
			o := nw.Machine(v).(*RevocableMachine).Output()
			switch {
			case !o.Chosen:
			case !first[v].Chosen:
				first[v] = o
			case o.ID != first[v].ID || o.K != first[v].K:
				t.Fatalf("node %d: chose (id=%d, k=%d), now (id=%d, k=%d) after round %d",
					v, first[v].ID, first[v].K, o.ID, o.K, completed-1)
			}
		}
		return completed%64 == 0 && revConverged(nw, 0.5)
	})
	if !revConverged(nw, 0.5) {
		t.Fatal("did not converge")
	}
	var best RevocableOutput
	for v := range first {
		o := nw.Machine(v).(*RevocableMachine).Output()
		if !o.Chosen || o.ID == 0 || o.K < 2 || o.K > o.EstimateK {
			t.Fatalf("node %d: final output %+v", v, o)
		}
		if o.K > best.K || o.K == best.K && o.ID < best.ID {
			best = o
		}
	}
	if o := nw.Machine(0).(*RevocableMachine).Output(); o.LeaderID != best.ID || o.LeaderK != best.K {
		t.Fatalf("agreed leader (id=%d, k=%d), best certificate (id=%d, k=%d)", o.LeaderID, o.LeaderK, best.ID, best.K)
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
