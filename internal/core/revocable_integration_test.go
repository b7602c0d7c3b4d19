package core

import (
	"math"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
)

// revNet builds a revocable network on g.
func revNet(t *testing.T, g *graph.Graph, cfg ProtoConfig, seed uint64) *sim.Network {
	t.Helper()
	r := mustBuild(t, "revocable", cfg)
	return sim.New(sim.Config{Graph: g, Seed: seed}, r.Factory)
}

func TestRevocableLockstepSchedule(t *testing.T) {
	// Every phase length is a function of k alone, so all nodes must hold
	// identical (EstimateK, Iterations) at every round.
	g := graph.Cycle(5)
	nw := revNet(t, g, ProtoConfig{Epsilon: 0.5, Iso: 0.8}, 1)
	for step := 0; step < 3000; step++ {
		if !nw.Step() {
			t.Fatal("network stopped unexpectedly")
		}
		first := nw.Machine(0).(*RevocableMachine).Output()
		for v := 1; v < g.N(); v++ {
			o := nw.Machine(v).(*RevocableMachine).Output()
			if o.EstimateK != first.EstimateK || o.Iterations != first.Iterations {
				t.Fatalf("round %d: node %d at (k=%d,iter=%d), node 0 at (k=%d,iter=%d)",
					step, v, o.EstimateK, o.Iterations, first.EstimateK, first.Iterations)
			}
		}
	}
}

func TestRevocablePotentialConservation(t *testing.T) {
	// While every node is probing, the diffusion only redistributes
	// potential: the global sum is invariant (doubly stochastic S). Track
	// the sum of node potentials plus in-flight shares implicitly by
	// sampling at exchange boundaries (all nodes fold simultaneously, so
	// node-sum alone is conserved round to round).
	g := graph.Complete(4)
	nw := revNet(t, g, ProtoConfig{Epsilon: 0.5, Iso: 2}, 3)
	prevSum := -1.0
	checked := 0
	for step := 0; step < 4000; step++ {
		if !nw.Step() {
			t.Fatal("network stopped")
		}
		allProbing := true
		sum := 0.0
		sameIterPhase := true
		first := nw.Machine(0).(*RevocableMachine).Output()
		for v := 0; v < g.N(); v++ {
			o := nw.Machine(v).(*RevocableMachine).Output()
			sum += o.Potential
			if !o.Probing {
				allProbing = false
			}
			if o.EstimateK != first.EstimateK || o.Iterations != first.Iterations {
				sameIterPhase = false
			}
		}
		if allProbing && sameIterPhase && prevSum >= 0 {
			// Conservation only applies within one diffusion phase; a new
			// iteration resets potentials. Accept either invariance or a
			// reset to an integer count of black nodes.
			if math.Abs(sum-prevSum) > 1e-9 && sum != math.Trunc(sum) {
				t.Fatalf("round %d: potential sum %v jumped from %v", step, sum, prevSum)
			}
			checked++
		}
		prevSum = sum
	}
	if checked < 100 {
		t.Fatalf("conservation checked only %d times", checked)
	}
}

func TestRevocableUniqueLeaderAcrossGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		iso  float64
	}{
		{"complete3", graph.Complete(3), 1.5},
		{"complete4", graph.Complete(4), 2},
		{"path3", graph.Path(3), 1},
		{"star4", graph.Star(4), 1},
		{"cycle4", graph.Cycle(4), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wins := 0
			const trials = 3
			for s := uint64(0); s < trials; s++ {
				nw := revNet(t, c.g, ProtoConfig{Epsilon: 0.5, Iso: c.iso}, 9100+s)
				converged := func() bool { return revConverged(nw, 0.5) }
				nw.RunUntil(60_000_000, func(completed int) bool {
					return completed%64 == 0 && converged()
				})
				if !converged() {
					t.Fatalf("seed %d did not converge", s)
				}
				if countRevLeaders(nw) == 1 {
					wins++
				}
			}
			if wins < trials {
				t.Fatalf("unique leader in %d/%d trials", wins, trials)
			}
		})
	}
}

func TestRevocableBlindScheduleConverges(t *testing.T) {
	// Corollary 1: no network knowledge at all. Simulable only at n=2..3.
	g := graph.Path(2)
	nw := revNet(t, g, ProtoConfig{Epsilon: 0.5}, 5)
	converged := func() bool { return revConverged(nw, 0.5) }
	nw.RunUntil(80_000_000, func(completed int) bool {
		return completed%64 == 0 && converged()
	})
	if !converged() {
		t.Fatal("blind schedule did not converge on P2")
	}
	if countRevLeaders(nw) != 1 {
		t.Fatal("blind schedule elected multiple leaders")
	}
}

func TestRevocableDeterministicInSeed(t *testing.T) {
	g := graph.Complete(3)
	cfg := ProtoConfig{Epsilon: 0.5, Iso: 1.5}
	run := func() ([]RevocableOutput, sim.Metrics) {
		nw := revNet(t, g, cfg, 77)
		nw.Run(50_000)
		outs := make([]RevocableOutput, g.N())
		for v := range outs {
			outs[v] = nw.Machine(v).(*RevocableMachine).Output()
		}
		return outs, nw.Metrics()
	}
	o1, m1 := run()
	o2, m2 := run()
	if m1 != m2 {
		t.Fatalf("metrics differ: %v vs %v", m1, m2)
	}
	for v := range o1 {
		if o1[v] != o2[v] {
			t.Fatalf("node %d outputs differ", v)
		}
	}
}

func TestRevocableChosenIDsAreFinal(t *testing.T) {
	// Once a node chooses (id, K), the pair never changes (Algorithm 6
	// line 14's id=nil guard).
	g := graph.Complete(4)
	nw := revNet(t, g, ProtoConfig{Epsilon: 0.5, Iso: 2}, 11)
	type chosen struct {
		id, k uint64
	}
	fixed := make(map[int]chosen)
	for step := 0; step < 200_000; step++ {
		if !nw.Step() {
			break
		}
		for v := 0; v < g.N(); v++ {
			o := nw.Machine(v).(*RevocableMachine).Output()
			if !o.Chosen {
				continue
			}
			if prev, ok := fixed[v]; ok {
				if prev.id != o.ID || prev.k != o.K {
					t.Fatalf("node %d re-chose: (%d,%d) -> (%d,%d)", v, prev.id, prev.k, o.ID, o.K)
				}
			} else {
				fixed[v] = chosen{o.ID, o.K}
			}
		}
	}
	if len(fixed) != g.N() {
		t.Fatalf("only %d/%d nodes chose", len(fixed), g.N())
	}
}

func TestRevocableLeaderCertificateIsMinOfMaxK(t *testing.T) {
	// At stabilization, the agreed certificate must be the smallest ID
	// among nodes holding the maximum chosen K.
	g := graph.Complete(4)
	nw := revNet(t, g, ProtoConfig{Epsilon: 0.5, Iso: 2}, 21)
	converged := func() bool { return revConverged(nw, 0.5) }
	nw.RunUntil(60_000_000, func(completed int) bool {
		return completed%64 == 0 && converged()
	})
	if !converged() {
		t.Fatal("did not converge")
	}
	var maxK, minID uint64
	for v := 0; v < g.N(); v++ {
		o := nw.Machine(v).(*RevocableMachine).Output()
		if o.K > maxK {
			maxK, minID = o.K, o.ID
		} else if o.K == maxK && o.ID < minID {
			minID = o.ID
		}
	}
	agreed := nw.Machine(0).(*RevocableMachine).Output()
	if agreed.LeaderK != maxK || agreed.LeaderID != minID {
		t.Fatalf("certificate (%d,%d) != expected (%d,%d)", agreed.LeaderK, agreed.LeaderID, maxK, minID)
	}
}

func TestRevocableRevocationHappens(t *testing.T) {
	// The revocable semantics: some node holds the leader flag before the
	// final certificate displaces it. Detect at least one flag transition
	// true->false across the run (whp multiple nodes self-adopt first).
	g := graph.Complete(4)
	nw := revNet(t, g, ProtoConfig{Epsilon: 0.5, Iso: 2}, 2)
	wasLeader := make([]bool, g.N())
	revoked := false
	for step := 0; step < 200_000; step++ {
		if !nw.Step() {
			break
		}
		for v := 0; v < g.N(); v++ {
			o := nw.Machine(v).(*RevocableMachine).Output()
			if o.Leader {
				wasLeader[v] = true
			} else if wasLeader[v] {
				revoked = true
			}
		}
		if revoked {
			return
		}
	}
	if !revoked {
		t.Skip("no revocation observed in this seed (all nodes adopted the final leader immediately)")
	}
}

// TestRevocableStepAllocatesNothing: once its message chunks have grown to
// full size, a diffusion round of the revocable-complete-4 workload's
// network allocates nothing. A chunk of 64 messages is refilled every 64
// rounds per node, which averages to under one allocation per round; a
// boxed value payload (one allocation per node per round) or a per-round
// slice fails this.
func TestRevocableStepAllocatesNothing(t *testing.T) {
	nw := revNet(t, graph.Complete(4), ProtoConfig{}, 1)
	nw.Run(64)
	for v := 0; v < nw.N(); v++ {
		if m := nw.Machine(v).(*RevocableMachine); m.k != 2 || m.phase != phaseDiffusion {
			t.Fatalf("node %d warmed into k=%d phase %d, want the first diffusion phase", v, m.k, m.phase)
		}
	}
	if avg := testing.AllocsPerRun(256, func() { nw.Step() }); avg != 0 {
		t.Fatalf("a warmed revocable round allocates %v objects, want 0", avg)
	}
}

func TestRevocableMsgBitsGrowWithPotential(t *testing.T) {
	small := avgMsg{phi: 0.5, potBits: 4, q: true, c: false}
	big := avgMsg{phi: 0.5, potBits: 400, q: true, c: false}
	if big.Bits() <= small.Bits() {
		t.Fatal("potential bit growth not reflected in message size")
	}
	withCert := dissMsg{q: true, c: true, idldr: 1 << 30, kldr: 16}
	without := dissMsg{q: true, c: true}
	if withCert.Bits() <= without.Bits() {
		t.Fatal("certificate not charged")
	}
}
