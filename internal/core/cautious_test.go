package core

import (
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
)

func TestNewRootExecState(t *testing.T) {
	e := newRootExec(42, 3, 10)
	if !e.isRoot || e.status != statusActive || e.parent != -1 {
		t.Fatalf("root state wrong: %+v", e)
	}
	if len(e.avail) != 3 {
		t.Fatalf("avail %v", e.avail)
	}
	if e.confirmed != 1 || e.threshold != 2 {
		t.Fatalf("confirmed=%d threshold=%d", e.confirmed, e.threshold)
	}
}

func TestNewChildExecState(t *testing.T) {
	e := newChildExec(42, 4, 2, 10)
	if e.isRoot || e.parent != 2 {
		t.Fatalf("child state wrong: %+v", e)
	}
	if len(e.avail) != 3 {
		t.Fatalf("avail should exclude parent port: %v", e.avail)
	}
	for _, p := range e.avail {
		if p == 2 {
			t.Fatal("parent port in avail")
		}
	}
	// Fresh child must report immediately: confirmed >= threshold.
	if e.confirmed < e.threshold {
		t.Fatal("fresh child would not report")
	}
}

func TestUsedPortRemoves(t *testing.T) {
	e := newRootExec(1, 4, 10)
	e.usedPort(2)
	if len(e.avail) != 3 {
		t.Fatalf("avail %v", e.avail)
	}
	e.usedPort(2) // idempotent
	if len(e.avail) != 3 {
		t.Fatalf("double removal changed avail: %v", e.avail)
	}
}

func TestHandleSizeAddsChildAndDeactivates(t *testing.T) {
	e := newRootExec(1, 4, 100)
	e.handle(0, bcMsg{kind: bcSize, source: 1, size: 3})
	if len(e.children) != 1 || e.children[0].port != 0 {
		t.Fatalf("children %v", e.children)
	}
	if e.confirmed != 4 {
		t.Fatalf("confirmed %d want 4", e.confirmed)
	}
	if e.children[0].active {
		t.Fatal("reporting child should be marked passive")
	}
	// Port consumed from avail.
	for _, p := range e.avail {
		if p == 0 {
			t.Fatal("child port still in avail")
		}
	}
}

func TestHandleStopFreezes(t *testing.T) {
	e := newChildExec(1, 3, 0, 100)
	e.handle(0, bcMsg{kind: bcStop, source: 1})
	if e.status != statusStopped {
		t.Fatal("stop not applied")
	}
	// Further activate from parent must not resurrect.
	e.handle(0, bcMsg{kind: bcActivate, source: 1})
	if e.status != statusStopped {
		t.Fatal("stopped exec reactivated")
	}
}

func TestHandleActivateDeactivateOnlyFromParent(t *testing.T) {
	e := newChildExec(1, 3, 0, 100)
	e.status = statusPassive
	e.handle(1, bcMsg{kind: bcActivate, source: 1}) // not the parent port
	if e.status != statusPassive {
		t.Fatal("activate from non-parent applied")
	}
	e.handle(0, bcMsg{kind: bcActivate, source: 1})
	if e.status != statusActive {
		t.Fatal("activate from parent ignored")
	}
	e.handle(0, bcMsg{kind: bcDeactivate, source: 1})
	if e.status != statusPassive {
		t.Fatal("deactivate from parent ignored")
	}
}

func TestDuplicateInviteConsumesPort(t *testing.T) {
	e := newChildExec(1, 3, 0, 100)
	avail := len(e.avail)
	e.handle(1, bcMsg{kind: bcInvite, source: 1})
	if len(e.avail) != avail-1 {
		t.Fatal("duplicate invite did not consume the port")
	}
	if len(e.children) != 0 {
		t.Fatal("invite must not create a child")
	}
}

func TestThresholdDoublingArithmetic(t *testing.T) {
	e := newRootExec(1, 8, 1000)
	// Crossing with confirmed=5 must double threshold past 5.
	e.children = []child{{port: 0, size: 4, active: true}}
	e.recomputeConfirmed()
	if e.confirmed != 5 {
		t.Fatalf("confirmed %d", e.confirmed)
	}
	// Simulate the crossing arithmetic from prepare.
	for e.threshold <= e.confirmed && e.threshold < e.cap {
		e.threshold *= 2
	}
	if e.threshold != 8 {
		t.Fatalf("threshold %d want 8", e.threshold)
	}
}

func TestCapClampsThreshold(t *testing.T) {
	e := newRootExec(1, 2, 16)
	e.confirmed = 100
	for e.threshold <= e.confirmed && e.threshold < e.cap {
		e.threshold *= 2
	}
	if e.threshold < 16 {
		t.Fatalf("threshold %d below cap", e.threshold)
	}
	// Next prepare would stop the execution.
}

// Integration: a star graph where the hub is the only candidate. The
// cautious broadcast must reach cap territory without exceeding ~2x cap.
func TestCautiousBroadcastTerritoryBounds(t *testing.T) {
	g := graph.Star(40)
	cfg := ProtoConfig{N: g.N(), TMix: 4, Phi: 0.9, X: 2, BroadcastOnly: true, C: 4}
	r := mustBuild(t, "ire", cfg)
	_, cap, _ := ResolveIRE(cfg)
	for seed := uint64(0); seed < 10; seed++ {
		nw := sim.New(sim.Config{Graph: g, Seed: seed}, r.Factory)
		nw.Run(r.Budget)
		for v := 0; v < g.N(); v++ {
			out := nw.Machine(v).(*IREMachine).Output()
			if !out.Candidate {
				continue
			}
			if out.Territory < 1 {
				t.Fatalf("seed=%d node=%d empty territory", seed, v)
			}
			if out.Territory > 4*cap {
				t.Fatalf("seed=%d node=%d territory %d far above cap %d", seed, v, out.Territory, cap)
			}
		}
	}
}

// Integration: territories must grow to the cap (up to rounding) on a
// complete graph where expansion is unconstrained (Lemma 1's Ω(x·tmix·Φ)).
func TestCautiousBroadcastReachesCap(t *testing.T) {
	g := graph.Complete(64)
	cfg := ProtoConfig{N: g.N(), TMix: 3, Phi: 0.5, X: 8, BroadcastOnly: true, C: 6}
	r := mustBuild(t, "ire", cfg)
	_, capSize, _ := ResolveIRE(cfg)
	reached, cands := 0, 0
	for seed := uint64(0); seed < 5; seed++ {
		nw := sim.New(sim.Config{Graph: g, Seed: 100 + seed}, r.Factory)
		nw.Run(r.Budget)
		for v := 0; v < g.N(); v++ {
			out := nw.Machine(v).(*IREMachine).Output()
			if out.Candidate {
				cands++
				if out.Territory >= capSize/2 {
					reached++
				}
			}
		}
	}
	if cands == 0 {
		t.Fatal("no candidates across seeds")
	}
	if reached*4 < cands*3 {
		t.Fatalf("only %d/%d candidates reached half the territory cap", reached, cands)
	}
}

// Integration: every node's JoinedTerritories is bounded by the candidate
// count, and non-candidates never report territories.
func TestTerritoryAccounting(t *testing.T) {
	g := graph.Complete(32)
	cfg := ProtoConfig{N: g.N(), TMix: 2, Phi: 0.5, BroadcastOnly: true}
	r := mustBuild(t, "ire", cfg)
	nw := sim.New(sim.Config{Graph: g, Seed: 3}, r.Factory)
	nw.Run(r.Budget)
	cands := 0
	for v := 0; v < g.N(); v++ {
		if nw.Machine(v).(*IREMachine).Output().Candidate {
			cands++
		}
	}
	for v := 0; v < g.N(); v++ {
		out := nw.Machine(v).(*IREMachine).Output()
		if out.JoinedTerritories > cands {
			t.Fatalf("node %d joined %d territories with only %d candidates", v, out.JoinedTerritories, cands)
		}
		if !out.Candidate && out.Territory != 0 {
			t.Fatalf("non-candidate %d has territory %d", v, out.Territory)
		}
	}
}
