package core

import (
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
)

// runExplicit executes one explicit election and returns the outputs.
func runExplicit(t *testing.T, g *graph.Graph, cfg ProtoConfig, seed uint64) []ExplicitOutput {
	t.Helper()
	r := mustBuild(t, "explicit", cfg)
	nw := sim.New(sim.Config{Graph: g, Seed: seed}, r.Factory)
	nw.Run(r.Budget)
	if !nw.AllHalted() {
		t.Fatalf("explicit election did not halt in %d rounds", r.Budget)
	}
	outs := make([]ExplicitOutput, g.N())
	for v := range outs {
		outs[v] = nw.Machine(v).(*ExplicitMachine).Output()
	}
	return outs
}

func TestExplicitAllNodesLearnLeader(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Complete(24), graph.Torus(4, 5), graph.Cycle(16), graph.Star(16),
	} {
		succ := 0
		for s := uint64(0); s < 5; s++ {
			outs := runExplicit(t, g, profiledConfig(t, g), 1000+s)
			leaders := 0
			var leaderID uint64
			for _, o := range outs {
				if o.IRE.Leader {
					leaders++
					leaderID = o.IRE.ID
				}
			}
			if leaders != 1 {
				continue // implicit whp-failure; explicit phase untested here
			}
			succ++
			for v, o := range outs {
				if !o.KnowsLeader {
					t.Fatalf("node %d never learned the leader", v)
				}
				if o.LeaderID != leaderID {
					t.Fatalf("node %d learned %d want %d", v, o.LeaderID, leaderID)
				}
			}
		}
		if succ == 0 {
			t.Fatalf("no successful implicit elections on n=%d", g.N())
		}
	}
}

func TestExplicitTreeIsLeaderRootedBFS(t *testing.T) {
	g := graph.Torus(4, 5)
	outs := runExplicit(t, g, profiledConfig(t, g), 7)
	leader := -1
	for v, o := range outs {
		if o.IRE.Leader {
			if leader >= 0 {
				t.Skip("multi-leader trial; tree assertions need a unique root")
			}
			leader = v
		}
	}
	if leader < 0 {
		t.Skip("no leader in this seed")
	}
	dist := g.BFS(leader)
	for v, o := range outs {
		if v == leader {
			if o.ParentPort != -1 || o.Depth != 0 {
				t.Fatalf("leader has parent %d depth %d", o.ParentPort, o.Depth)
			}
			continue
		}
		// Synchronous flooding yields exact BFS depths.
		if o.Depth != dist[v] {
			t.Fatalf("node %d depth %d want BFS %d", v, o.Depth, dist[v])
		}
		// Parent pointers step one hop toward the leader.
		parent := g.Neighbor(v, o.ParentPort)
		if dist[parent] != dist[v]-1 {
			t.Fatalf("node %d parent %d not one hop closer", v, parent)
		}
	}
}

func TestExplicitTreeReachesRoot(t *testing.T) {
	g := graph.Grid(5, 5)
	outs := runExplicit(t, g, profiledConfig(t, g), 3)
	leader := -1
	for v, o := range outs {
		if o.IRE.Leader {
			leader = v
			break
		}
	}
	if leader < 0 {
		t.Skip("no leader in this seed")
	}
	for v := range outs {
		cur, hops := v, 0
		for cur != leader {
			o := outs[cur]
			if o.ParentPort < 0 {
				t.Fatalf("node %d: parent chain broke at %d", v, cur)
			}
			cur = g.Neighbor(cur, o.ParentPort)
			hops++
			if hops > g.N() {
				t.Fatalf("node %d: parent chain does not terminate", v)
			}
		}
	}
}

func TestExplicitAnnouncementCostBounded(t *testing.T) {
	// The announcement flood costs at most 2m extra messages (each node
	// broadcasts once).
	g := graph.Complete(32)
	cfg := profiledConfig(t, g)
	run := func(proto string) int64 {
		r := mustBuild(t, proto, cfg)
		nw := sim.New(sim.Config{Graph: g, Seed: 11}, r.Factory)
		nw.Run(r.Budget)
		return nw.Metrics().Messages
	}
	explicitMsgs, implicitMsgs := run("explicit"), run("ire")

	if extra := explicitMsgs - implicitMsgs; extra > int64(2*g.M()) {
		t.Fatalf("announcement cost %d exceeds 2m=%d", extra, 2*g.M())
	}
}

func TestExplicitNoLeaderNoAnnouncement(t *testing.T) {
	g := graph.Cycle(12)
	cfg := profiledConfig(t, g)
	cfg.C = 0.01 // almost surely zero candidates
	for s := uint64(0); s < 6; s++ {
		outs := runExplicit(t, g, cfg, 40+s)
		anyCand := false
		for _, o := range outs {
			if o.IRE.Candidate {
				anyCand = true
			}
		}
		if anyCand {
			continue
		}
		for v, o := range outs {
			if o.KnowsLeader {
				t.Fatalf("node %d knows a leader in a leaderless election", v)
			}
		}
		return
	}
	t.Skip("all seeds drew candidates")
}
