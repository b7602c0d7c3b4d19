package adversary

import (
	"reflect"
	"testing"

	"anonlead/internal/graph"
)

// TestDecisionValueVariantsMatchHeapChain pins the alloc-free refactor:
// decision2/decision3 must walk exactly the derivation chain the original
// heap-allocating decision() walks, for the draws the Fate paths make.
func TestDecisionValueVariantsMatchHeapChain(t *testing.T) {
	cases := [][]uint64{
		{0, 0}, {1, 2}, {7, 1 << 40}, {12345, 99},
	}
	for _, c := range cases {
		seed := c[0] * 77
		old2 := decision(seed, c[0], c[1])
		new2 := decision2(seed, c[0], c[1])
		for i := 0; i < 8; i++ {
			if a, b := old2.Uint64(), new2.Uint64(); a != b {
				t.Fatalf("decision2(%d,%v) draw %d: %d vs %d", seed, c, i, b, a)
			}
		}
		old3 := decision(seed, c[0], c[1], 5)
		new3 := decision3(seed, c[0], c[1], 5)
		for i := 0; i < 8; i++ {
			if a, b := old3.Uint64(), new3.Uint64(); a != b {
				t.Fatalf("decision3(%d,%v) draw %d: %d vs %d", seed, c, i, b, a)
			}
		}
	}
}

// TestAdaptiveCrashPicksBusiest: top-K by accumulated window traffic,
// ties to the lower index, zero-traffic nodes never picked.
func TestAdaptiveCrashPicksBusiest(t *testing.T) {
	a := mustBuild(t, Spec{AdaptiveCrash: 2, AdaptiveWindow: 2}, graph.Cycle(5), 1)
	if got := a.ObserveTraffic(-1, []int{9, 9, 9, 9, 9}); got != nil {
		t.Fatalf("Init round observed: %v", got)
	}
	if got := a.ObserveTraffic(0, []int{1, 4, 0, 4, 2}); got != nil {
		t.Fatalf("mid-window pick: %v", got)
	}
	got := a.ObserveTraffic(1, []int{1, 3, 0, 4, 2})
	// Accumulated: [2, 7, 0, 8, 4] → top-2 = {3, 1}.
	if want := []int{3, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("picks %v, want %v", got, want)
	}
	// One strike spent: later windows are dormant.
	for r := 2; r < 6; r++ {
		if got := a.ObserveTraffic(r, []int{9, 9, 9, 9, 9}); got != nil {
			t.Fatalf("dormant adversary picked %v at round %d", got, r)
		}
	}
}

// TestAdaptiveCrashTieBreaksLow: equal accumulations resolve to the lower
// node index (strict > comparison), keeping picks deterministic.
func TestAdaptiveCrashTieBreaksLow(t *testing.T) {
	a := mustBuild(t, Spec{AdaptiveCrash: 1, AdaptiveWindow: 1}, graph.Cycle(4), 1)
	got := a.ObserveTraffic(0, []int{0, 5, 5, 5})
	if want := []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("picks %v, want %v", got, want)
	}
}

// TestAdaptiveCrashSilentWindowKeepsStrike: a window with no traffic at
// all claims nobody and does not spend a strike.
func TestAdaptiveCrashSilentWindowKeepsStrike(t *testing.T) {
	a := mustBuild(t, Spec{AdaptiveCrash: 1, AdaptiveWindow: 1}, graph.Cycle(3), 1)
	if got := a.ObserveTraffic(0, []int{0, 0, 0}); got != nil {
		t.Fatalf("silent window picked %v", got)
	}
	got := a.ObserveTraffic(1, []int{0, 2, 0})
	if want := []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("picks %v, want %v (strike should have survived the silent window)", got, want)
	}
}

// TestAdaptiveCrashMultipleStrikes: each window boundary claims its own
// victims until the strike budget is spent.
func TestAdaptiveCrashMultipleStrikes(t *testing.T) {
	a := mustBuild(t, Spec{AdaptiveCrash: 1, AdaptiveWindow: 1, AdaptiveStrikes: 2}, graph.Cycle(3), 1)
	if got, want := a.ObserveTraffic(0, []int{5, 1, 0}), []int{0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("strike 1 picks %v, want %v", got, want)
	}
	if got, want := a.ObserveTraffic(1, []int{0, 1, 9}), []int{2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("strike 2 picks %v, want %v", got, want)
	}
	if got := a.ObserveTraffic(2, []int{0, 9, 0}); got != nil {
		t.Fatalf("strike budget exceeded: picked %v", got)
	}
}

// TestSpecAdaptive: the declarative spec's adaptive fields flow into
// IsZero, Validate, Descriptor, and Build; a spec without them never
// names a victim.
func TestSpecAdaptive(t *testing.T) {
	if (Spec{AdaptiveCrash: 1}).IsZero() {
		t.Fatal("adaptive spec reported zero")
	}
	if err := (Spec{AdaptiveCrash: -1}).Validate(); err == nil {
		t.Fatal("negative adaptive crash accepted")
	}
	if err := (Spec{AdaptiveWindow: 4}).Validate(); err == nil {
		t.Fatal("adaptive window without adaptive_crash accepted")
	}
	if got, want := (Spec{AdaptiveCrash: 1}).Descriptor(), "adaptive=1@8"; got != want {
		t.Fatalf("descriptor %q, want %q (defaults rendered resolved)", got, want)
	}
	if got, want := (Spec{AdaptiveCrash: 2, AdaptiveWindow: 4, AdaptiveStrikes: 3}).Descriptor(), "adaptive=2@4x3"; got != want {
		t.Fatalf("descriptor %q, want %q", got, want)
	}
	if got, want := (Spec{Loss: 0.1, AdaptiveCrash: 1, AdaptiveWindow: 2}).Descriptor(), "loss=0.1,adaptive=1@2"; got != want {
		t.Fatalf("descriptor %q, want %q", got, want)
	}

	g := graph.Cycle(6)
	busy := []int{0, 1, 5, 2, 0, 0}
	for _, s := range []Spec{{AdaptiveCrash: 1, AdaptiveWindow: 2}, {Loss: 0.1, AdaptiveCrash: 1}} {
		adv := mustBuild(t, s, g, 7)
		window, _ := s.adaptiveParams()
		var got []int
		for r := 0; r < window; r++ {
			got = adv.ObserveTraffic(r, busy)
		}
		if want := []int{2}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: picks %v after one window, want %v", s.Descriptor(), got, want)
		}
		if adv.CrashRound(2) != -1 || adv.MaxDelay() != 0 {
			t.Fatalf("%s: adaptive crashes scheduled up front or delayed", s.Descriptor())
		}
	}
	static := mustBuild(t, Spec{Loss: 0.1, DelayProb: 0.5, MaxDelay: 2, CrashFraction: 0.5, CrashBy: 3}, g, 7)
	for r := -1; r < 20; r++ {
		if got := static.ObserveTraffic(r, busy); got != nil {
			t.Fatalf("static spec picked %v at round %d", got, r)
		}
	}
}
