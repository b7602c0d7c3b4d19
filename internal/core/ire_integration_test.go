package core

import (
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
)

// profiledConfig builds the default IRE config from a graph's profile.
func profiledConfig(t *testing.T, g *graph.Graph) ProtoConfig {
	t.Helper()
	prof, err := spectral.ProfileGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ProtoConfig{N: g.N(), TMix: prof.MixingTime, Phi: prof.Conductance}
}

func TestIREAcrossFamilies(t *testing.T) {
	r := rng.New(99)
	expander, err := graph.RandomRegular(48, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		trials  int
		minWins int
	}{
		{"complete32", graph.Complete(32), 10, 9},
		{"cycle20", graph.Cycle(20), 10, 8},
		{"torus5x5", graph.Torus(5, 5), 10, 8},
		{"hypercube32", graph.Hypercube(5), 10, 8},
		{"expander48", expander, 10, 8},
		{"star24", graph.Star(24), 8, 6},
		{"grid6x6", graph.Grid(6, 6), 8, 6},
		{"barbell", graph.Barbell(8, 5), 6, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := profiledConfig(t, c.g)
			wins := 0
			for s := 0; s < c.trials; s++ {
				leaders, _, _ := runIRE(t, c.g, cfg, uint64(5000+s))
				if leaders == 1 {
					wins++
				}
			}
			if wins < c.minWins {
				t.Fatalf("unique-leader wins %d/%d below threshold %d", wins, c.trials, c.minWins)
			}
		})
	}
}

func TestIREDeterministicInSeed(t *testing.T) {
	g := graph.Torus(4, 4)
	cfg := profiledConfig(t, g)
	l1, o1, m1 := runIRE(t, g, cfg, 42)
	l2, o2, m2 := runIRE(t, g, cfg, 42)
	if l1 != l2 || m1 != m2 {
		t.Fatalf("same seed diverged: leaders %d vs %d, metrics %v vs %v", l1, l2, m1, m2)
	}
	for v := range o1 {
		if o1[v] != o2[v] {
			t.Fatalf("node %d output differs: %+v vs %+v", v, o1[v], o2[v])
		}
	}
}

func TestIREInvariantUnderPortPermutation(t *testing.T) {
	// Protocol correctness must not depend on the port labeling
	// (anonymous networks expose no canonical ports). Success rates on a
	// permuted graph should match the original within noise.
	base := graph.Torus(5, 5)
	perm := base.PermutePorts(rng.New(1234))
	cfg := profiledConfig(t, base)
	wins := func(g *graph.Graph) int {
		w := 0
		for s := 0; s < 10; s++ {
			leaders, _, _ := runIRE(t, g, cfg, uint64(800+s))
			if leaders == 1 {
				w++
			}
		}
		return w
	}
	if wBase, wPerm := wins(base), wins(perm); wBase < 8 || wPerm < 8 {
		t.Fatalf("success degraded under port permutation: base %d/10, permuted %d/10", wBase, wPerm)
	}
}

func TestIRELeaderIsMaxCandidate(t *testing.T) {
	// Whenever the election succeeds, the unique leader must be the
	// candidate with the maximum random ID (Theorem 1's argument).
	g := graph.Complete(24)
	cfg := profiledConfig(t, g)
	checked := 0
	for s := 0; s < 10; s++ {
		leaders, outs, _ := runIRE(t, g, cfg, uint64(300+s))
		if leaders != 1 {
			continue
		}
		var maxCand uint64
		var leaderID uint64
		for _, o := range outs {
			if o.Candidate && o.ID > maxCand {
				maxCand = o.ID
			}
			if o.Leader {
				leaderID = o.ID
			}
		}
		if leaderID != maxCand {
			t.Fatalf("seed %d: leader ID %d != max candidate ID %d", s, leaderID, maxCand)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no successful elections to check")
	}
}

func TestIREMaxCandidateAlwaysLeads(t *testing.T) {
	// The max-ID candidate never hears a larger walk ID, so it must raise
	// the flag in every election with at least one candidate (multi-leader
	// failures add leaders; they never remove the max).
	g := graph.Cycle(16)
	cfg := profiledConfig(t, g)
	for s := 0; s < 10; s++ {
		_, outs, _ := runIRE(t, g, cfg, uint64(700+s))
		var maxCand uint64
		anyCand := false
		for _, o := range outs {
			if o.Candidate {
				anyCand = true
				if o.ID > maxCand {
					maxCand = o.ID
				}
			}
		}
		if !anyCand {
			continue
		}
		found := false
		for _, o := range outs {
			if o.Leader && o.ID == maxCand {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed %d: max candidate did not lead", s)
		}
	}
}

func TestIREZeroCandidatesElectsNobody(t *testing.T) {
	// With a negligible candidate rate most trials have no candidates; the
	// protocol must terminate cleanly with zero leaders.
	g := graph.Cycle(12)
	cfg := profiledConfig(t, g)
	cfg.C = 0.01
	sawZero := false
	for s := 0; s < 6; s++ {
		leaders, outs, _ := runIRE(t, g, cfg, uint64(40+s))
		cands := 0
		for _, o := range outs {
			if o.Candidate {
				cands++
			}
		}
		if cands == 0 {
			sawZero = true
			if leaders != 0 {
				t.Fatalf("seed %d: %d leaders without candidates", s, leaders)
			}
		}
	}
	if !sawZero {
		t.Skip("no zero-candidate trial drawn (rate tuned for them)")
	}
}

func TestIREHaltsExactlyOnSchedule(t *testing.T) {
	g := graph.Complete(16)
	cfg := profiledConfig(t, g)
	r := mustBuild(t, "ire", cfg)
	nw := sim.New(sim.Config{Graph: g, Seed: 5}, r.Factory)
	total := r.Budget - 4 // the decide round
	ran := nw.Run(total + 10)
	if ran > total+2 {
		t.Fatalf("ran %d rounds, schedule says %d", ran, total)
	}
	for v := 0; v < g.N(); v++ {
		out := nw.Machine(v).(*IREMachine).Output()
		if out.HaltRound != total {
			t.Fatalf("node %d halted at %d want %d", v, out.HaltRound, total)
		}
	}
}

func TestIREMessageScalingBeatsFloodOnComplete(t *testing.T) {
	// On K_n the paper's protocol uses Õ(√n) messages; flooding uses
	// Θ(n²) (Table 1's Ω(m) row). Two checks: the absolute message count
	// drops below the flooding floor m by n=256, and the n→2n growth
	// factor stays far below flooding's ~4x.
	small := graph.Complete(128)
	large := graph.Complete(256)
	_, _, metSmall := runIRE(t, small, profiledConfig(t, small), 9)
	_, _, metLarge := runIRE(t, large, profiledConfig(t, large), 9)
	if floodFloor := int64(large.M()); metLarge.Messages >= floodFloor {
		t.Fatalf("IRE messages %d not below flooding floor %d on K256", metLarge.Messages, floodFloor)
	}
	// Ideal √n scaling would give ~1.4x; polylog factors push it near 3x
	// at these sizes. Flooding grows at 4x — require clear separation.
	growth := float64(metLarge.Messages) / float64(metSmall.Messages)
	if growth > 3.6 {
		t.Fatalf("IRE message growth %v from K128 to K256 too close to flooding's 4x", growth)
	}
}

func TestIREPayloadBitsPositive(t *testing.T) {
	msgs := []sim.Payload{
		bcMsg{kind: bcInvite, source: 12345},
		bcMsg{kind: bcSize, source: 12345, size: 77},
		bcMsg{kind: bcActivate, source: 12345},
		bcMsg{kind: bcDeactivate, source: 12345},
		bcMsg{kind: bcStop, source: 12345},
		walkMsg{id: 999, count: 3},
		ccMsg{source: 5, id: 999},
	}
	for i, m := range msgs {
		if m.Bits() <= 0 {
			t.Fatalf("payload %d has non-positive bits", i)
		}
	}
	// Invites carry the full ID; control messages only the slot tag.
	invite := bcMsg{kind: bcInvite, source: 1 << 40}
	stop := bcMsg{kind: bcStop, source: 1 << 40}
	if invite.Bits() <= stop.Bits() {
		t.Fatal("invite should cost more than control messages")
	}
}

// TestIRESlotTagCoversExecutions: a cautious-broadcast message's slot tag
// is slotTagBits wide, so the CONGEST charge is honest only while no node
// multiplexes more than 1<<slotTagBits executions. Every node's execution
// table holds each execution it ever joined (nothing is removed), so its
// final length is the node's peak.
func TestIRESlotTagCoversExecutions(t *testing.T) {
	for _, c := range []struct {
		family string
		n      int
	}{{"expander", 256}, {"gnp", 1000}, {"complete", 256}, {"cycle", 96}} {
		peak := 0
		for seed := uint64(1); seed <= 4; seed++ {
			g, err := graph.Seeded(c.family, c.n, seed)
			if err != nil {
				t.Fatal(err)
			}
			r := mustBuild(t, "ire", profiledConfig(t, g))
			nw := sim.New(sim.Config{Graph: g, Seed: seed}, r.Factory)
			nw.Run(r.Budget)
			for v := 0; v < g.N(); v++ {
				k := nw.Machine(v).(*IREMachine).execs.Len()
				if k > 1<<slotTagBits {
					t.Fatalf("%s-%d seed %d: node %d joined %d executions, the %d-bit slot tag names %d",
						c.family, c.n, seed, v, k, slotTagBits, 1<<slotTagBits)
				}
				peak = max(peak, k)
			}
		}
		t.Logf("%s-%d: at most %d executions at a node (tag room %d)", c.family, c.n, peak, 1<<slotTagBits)
	}
}
