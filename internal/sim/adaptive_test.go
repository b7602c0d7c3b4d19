package sim

import (
	"reflect"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// testAdaptive is a traffic-adaptive test adversary: it records every
// observation and, from fireRound on, names the busiest node of each
// round (ties to the lower index, zero traffic never picked).
type testAdaptive struct {
	testAdv
	fireRound int
	fired     bool    // single strike: first qualifying round only
	observed  [][]int // copy of sent per observed round, keyed by round+1
	picks     []int
}

func (a *testAdaptive) ObserveTraffic(round int, sent []int) []int {
	for len(a.observed) <= round+1 {
		a.observed = append(a.observed, nil)
	}
	a.observed[round+1] = append([]int(nil), sent...)
	if round < a.fireRound || a.fired {
		return nil
	}
	best, bestSent := -1, 0
	for v, s := range sent {
		if s > bestSent {
			best, bestSent = v, s
		}
	}
	if best < 0 {
		return nil
	}
	a.fired = true
	a.picks = append(a.picks[:0], best)
	return a.picks
}

// chatty broadcasts every round like recorder, but one designated node
// sends double traffic — a stand-in for the emerging leader's extra load.
type chatty struct {
	recorder
	busy bool
}

func (m *chatty) Step(ctx *Context, inbox []Packet) {
	m.recorder.Step(ctx, inbox)
	if m.busy && ctx.Round() < m.stopRound {
		ctx.Broadcast(testMsg{v: 100 + ctx.Round(), bits: m.sendBits})
	}
}

func chattyNet(g *graph.Graph, busy, stopRound int, adv Adversary) *Network {
	return New(Config{Graph: g, Seed: 1, Adversary: adv},
		func(node, degree int, r *rng.RNG) Machine {
			return &chatty{recorder: recorder{stopRound: stopRound, sendBits: 4}, busy: node == busy}
		})
}

// TestAdaptiveCrashTargetsBusiestNode: the adaptive adversary sees the
// true per-node send counts in node order, and its pick — the busiest
// node — is crash-stopped at the start of the next round.
func TestAdaptiveCrashTargetsBusiestNode(t *testing.T) {
	g := graph.Cycle(8)
	const busy = 3
	adv := &testAdaptive{fireRound: 1}
	nw := chattyNet(g, busy, 10, adv)
	nw.Run(20)

	// Round 0 observation (observed[1]): every node broadcast once on its
	// 2 ports, node 3 twice.
	want := []int{2, 2, 2, 4, 2, 2, 2, 2}
	if len(adv.observed) < 2 || !reflect.DeepEqual(adv.observed[1], want) {
		t.Fatalf("round-0 traffic observation: got %v, want %v", adv.observed[1], want)
	}
	if !nw.Crashed(busy) {
		t.Fatalf("busiest node %d was not crashed", busy)
	}
	for v := 0; v < g.N(); v++ {
		if v != busy && nw.Crashed(v) {
			t.Fatalf("node %d crashed; only %d should have", v, busy)
		}
	}
	// Fired after routing round 1 → crash applies at the start of round 2:
	// node 3 stepped rounds 0..1 only.
	if got := nw.Machine(busy).(*chatty).rounds; got != 2 {
		t.Fatalf("busy node stepped %d rounds, want 2", got)
	}
}

// TestAdaptiveOverridesLaterStaticSchedule: a node scheduled to crash at
// round 4 statically but picked by the adaptive adversary after round 0
// dies at round 1 — the earlier of the two rounds wins, and the crash is
// not double-counted when the static schedule comes due.
func TestAdaptiveOverridesLaterStaticSchedule(t *testing.T) {
	g := graph.Cycle(6)
	const victim = 2
	adv := &testAdaptive{fireRound: 0}
	adv.crash = func(v int) int {
		if v == victim {
			return 4
		}
		return -1
	}
	nw := chattyNet(g, victim, 10, adv)
	nw.Run(20)
	if !nw.Crashed(victim) {
		t.Fatal("victim not crashed")
	}
	// Adaptive pick after round 0 → crash at the start of round 1: the
	// victim steps round 0 only, three rounds before its static schedule.
	if got := nw.Machine(victim).(*chatty).rounds; got != 1 {
		t.Fatalf("victim stepped %d rounds, want 1 (adaptive round-1 crash should win)", got)
	}
	if got := nw.Metrics().Crashes; got != 1 {
		t.Fatalf("Metrics().Crashes = %d, want 1", got)
	}
}

// TestObserveTrafficCountsOnlyTheRound: the adversary observes the routed
// round's own send counts, so a node that sent and then sleeps under its
// IdleUntil promise counts zero in the rounds it is not stepped.
func TestObserveTrafficCountsOnlyTheRound(t *testing.T) {
	const rounds = 10
	adv := &testAdaptive{fireRound: rounds}
	nw := New(Config{Graph: graph.Path(2), Seed: 1, Adversary: adv}, func(node, degree int, r *rng.RNG) Machine {
		if node == 0 {
			return &scripted{idle: map[int]int{0: 1 << 30}}
		}
		return &scripted{sendAt: map[int]bool{2: true}, idle: map[int]int{2: 8}}
	})
	nw.Run(rounds)
	for r := 0; r < rounds; r++ {
		if got, want := adv.observed[r+1], []int{0, btoi(r == 2)}; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d traffic observation: got %v, want %v", r, got, want)
		}
	}
}
