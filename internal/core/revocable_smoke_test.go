package core

import (
	"math"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
)

// revConverged reports whether every node chose an ID, all agree on the
// leader certificate, and the estimate passed the 4n stability point
// (Theorem 3: no further changes after k^{1+ε} > 4n).
func revConverged(nw *sim.Network, eps float64) bool {
	n := nw.N()
	first := nw.Machine(0).(*RevocableMachine).Output()
	if !first.Chosen || first.LeaderK == 0 {
		return false
	}
	if math.Pow(float64(first.EstimateK), 1+eps) <= 4*float64(n) {
		return false
	}
	for v := 1; v < n; v++ {
		o := nw.Machine(v).(*RevocableMachine).Output()
		if !o.Chosen || o.LeaderK != first.LeaderK || o.LeaderID != first.LeaderID {
			return false
		}
	}
	return true
}

// countRevLeaders returns how many nodes currently hold the leader flag.
func countRevLeaders(nw *sim.Network) int {
	leaders := 0
	for v := 0; v < nw.N(); v++ {
		if nw.Machine(v).(*RevocableMachine).Output().Leader {
			leaders++
		}
	}
	return leaders
}

func TestRevocableSmokeComplete(t *testing.T) {
	g := graph.Complete(4)
	cfg := ProtoConfig{Epsilon: 0.5, Iso: 2}
	r := mustBuild(t, "revocable", cfg)
	wins := 0
	const trials = 5
	for s := uint64(0); s < trials; s++ {
		nw := sim.New(sim.Config{Graph: g, Seed: 7000 + s}, r.Factory)
		rounds := nw.RunUntil(40_000_000, func(completed int) bool {
			return completed%64 == 0 && revConverged(nw, 0.5)
		})
		if !revConverged(nw, 0.5) {
			t.Fatalf("seed=%d did not converge in %d rounds", s, rounds)
		}
		leaders := countRevLeaders(nw)
		o := nw.Machine(0).(*RevocableMachine).Output()
		t.Logf("seed=%d rounds=%d leaders=%d leaderK=%d finalK=%d metrics={%v}",
			s, rounds, leaders, o.LeaderK, o.EstimateK, nw.Metrics())
		if leaders == 1 {
			wins++
		}
	}
	if wins < trials-1 {
		t.Fatalf("unique-leader rate too low: %d/%d", wins, trials)
	}
}
