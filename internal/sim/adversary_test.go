package sim

import (
	"reflect"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// testAdv is a configurable adversary for exercising the interposition
// layer without importing internal/adversary (which would cycle).
type testAdv struct {
	crash    func(v int) int
	fate     func(round, from, port, to int) (bool, int)
	maxDelay int
}

func (a *testAdv) CrashRound(v int) int {
	if a.crash == nil {
		return -1
	}
	return a.crash(v)
}

func (a *testAdv) MaxDelay() int { return a.maxDelay }

func (a *testAdv) Fate(round, from, port, to int) (bool, int) {
	if a.fate == nil {
		return false, 0
	}
	return a.fate(round, from, port, to)
}

func (a *testAdv) ObserveTraffic(int, []int) []int { return nil }

func recorderNetAdv(g *graph.Graph, stopRound int, adv Adversary) *Network {
	return New(Config{Graph: g, Seed: 1, Adversary: adv},
		func(node, degree int, r *rng.RNG) Machine {
			return &recorder{stopRound: stopRound, sendBits: 4}
		})
}

// TestZeroRateAdversaryIsByteIdentical pins the regression contract: an
// adversary that never acts produces exactly the run a nil adversary does —
// same machine observations, same metrics struct.
func TestZeroRateAdversaryIsByteIdentical(t *testing.T) {
	g := graph.Torus(4, 5)
	run := func(adv Adversary) ([][][3]int, Metrics) {
		nw := recorderNetAdv(g, 6, adv)
		nw.Run(50)
		obs := make([][][3]int, g.N())
		for v := 0; v < g.N(); v++ {
			obs[v] = nw.Machine(v).(*recorder).received
		}
		return obs, nw.Metrics()
	}
	baseObs, baseMet := run(nil)
	zeroObs, zeroMet := run(&testAdv{}) // never drops, delays, or crashes
	if !reflect.DeepEqual(baseObs, zeroObs) {
		t.Fatal("zero-rate adversary changed delivered packets")
	}
	if baseMet != zeroMet {
		t.Fatalf("zero-rate adversary changed metrics:\nnil:  %+v\nzero: %+v", baseMet, zeroMet)
	}
}

// TestDropAllSilencesNetwork: with every packet dropped, no machine ever
// receives anything, and the drop counter matches the send counter.
func TestDropAllSilencesNetwork(t *testing.T) {
	g := graph.Cycle(6)
	adv := &testAdv{fate: func(int, int, int, int) (bool, int) { return true, 0 }}
	nw := recorderNetAdv(g, 4, adv)
	nw.Run(50)
	for v := 0; v < g.N(); v++ {
		if rec := nw.Machine(v).(*recorder); len(rec.received) != 0 {
			t.Fatalf("node %d received %v despite drop-all", v, rec.received)
		}
	}
	m := nw.Metrics()
	if m.Dropped == 0 || m.Dropped != m.Messages {
		t.Fatalf("dropped %d of %d sent", m.Dropped, m.Messages)
	}
}

// TestCrashStopsNode: a crashed node stops stepping and sending, its
// inbound traffic is dropped, and the network still terminates.
func TestCrashStopsNode(t *testing.T) {
	g := graph.Cycle(5)
	adv := &testAdv{crash: func(v int) int {
		if v == 2 {
			return 3
		}
		return -1
	}}
	nw := recorderNetAdv(g, 8, adv)
	nw.Run(100)
	if !nw.Crashed(2) || nw.Metrics().Crashes != 1 {
		t.Fatalf("crash accounting wrong: crashed(2)=%v count=%d", nw.Crashed(2), nw.Metrics().Crashes)
	}
	if nw.Crashed(1) {
		t.Fatal("wrong node crashed")
	}
	if !nw.AllHalted() {
		t.Fatal("network with a crashed node did not terminate")
	}
	rec := nw.Machine(2).(*recorder)
	// Node 2 stepped in rounds 0..2 only: crash fires at the start of
	// round 3.
	if rec.rounds != 3 {
		t.Fatalf("crashed node stepped %d rounds, want 3", rec.rounds)
	}
	for _, r := range rec.received {
		if r[0] >= 3 {
			t.Fatalf("crashed node received a packet in round %d", r[0])
		}
	}
	// Neighbors keep running to their scheduled stop.
	if nw.Machine(0).(*recorder).rounds < 8 {
		t.Fatalf("healthy node stopped early after neighbor crash")
	}
	if nw.Metrics().Crashes != 1 {
		t.Fatalf("metrics.Crashes = %d", nw.Metrics().Crashes)
	}
}

// TestDelayShiftsDelivery: a fixed one-round delay on every packet shifts
// every delivery by exactly one round without losing any packet.
func TestDelayShiftsDelivery(t *testing.T) {
	g := graph.Path(2)
	adv := &testAdv{
		maxDelay: 1,
		fate:     func(int, int, int, int) (bool, int) { return false, 1 },
	}
	nw := recorderNetAdv(g, 5, adv)
	nw.Run(50)
	rec := nw.Machine(1).(*recorder)
	// Undelayed schedule is {0,-1},{1,0},{2,1},... — with +1 delay, the
	// Init payload lands in round 1 and round r's payload in round r+2.
	want := [][3]int{{1, 0, -1}, {2, 0, 0}, {3, 0, 1}, {4, 0, 2}, {5, 0, 3}}
	if len(rec.received) < len(want) {
		t.Fatalf("received %v, want prefix %v", rec.received, want)
	}
	for i, w := range want {
		if rec.received[i] != w {
			t.Fatalf("delivery %d: %v, want %v", i, rec.received[i], w)
		}
	}
	if nw.Metrics().Delayed == 0 {
		t.Fatal("Delayed metric not counted")
	}
}

// TestDelayedPacketsToHaltedNodesDiscarded: parking packets for a node
// that halts before arrival must not wedge termination.
func TestDelayedPacketsToHaltedNodesDiscarded(t *testing.T) {
	g := graph.Path(2)
	adv := &testAdv{
		maxDelay: 8,
		fate:     func(round, from, port, to int) (bool, int) { return false, 8 },
	}
	nw := recorderNetAdv(g, 2, adv)
	ran := nw.Run(100)
	if !nw.AllHalted() {
		t.Fatal("network did not halt")
	}
	if ran > 12 {
		t.Fatalf("ran %d rounds draining undeliverable futures", ran)
	}
}

// TestInitRoundFate: adversary decisions apply to Init sends (round -1)
// too — a drop-all adversary kills even the first delivery.
func TestInitRoundFate(t *testing.T) {
	g := graph.Path(2)
	var sawInit bool
	adv := &testAdv{fate: func(round, from, port, to int) (bool, int) {
		if round == -1 {
			sawInit = true
		}
		return round == -1, 0
	}}
	nw := recorderNetAdv(g, 3, adv)
	nw.Run(20)
	if !sawInit {
		t.Fatal("Fate never consulted for Init sends")
	}
	rec := nw.Machine(1).(*recorder)
	for _, r := range rec.received {
		if r[2] == -1 {
			t.Fatal("Init payload delivered despite round -1 drop")
		}
	}
	if len(rec.received) == 0 {
		t.Fatal("later rounds were dropped too")
	}
}
