package adversary

import (
	"math"
	"testing"

	"anonlead/internal/graph"
)

// FuzzSpec holds the declarative contract over arbitrary field values: a
// spec fails Validate exactly when Build errors, a valid spec builds
// without panicking, a zero spec is exactly the one that builds no
// adversary and names itself "", and two builds from one seed answer every
// query identically. The schedule's node is folded into the network (its
// sign kept), so the only Build error is a Validate one.
func FuzzSpec(f *testing.F) {
	f.Add(0.0, 0.0, 0, 0, 0, 0.0, false, 0.0, 0, 0, 0, 0, uint64(1))
	f.Add(0.2, 0.3, 5, 2, 1, 0.25, true, 0.4, 2, 1, 2, 3, uint64(2024))
	f.Add(math.NaN(), 0.0, 0, 0, 0, 0.0, false, 0.0, 0, 0, 0, 0, uint64(3))
	f.Add(0.0, 1.0, math.MaxInt, -3, 7, 1.0, false, 1.0, math.MaxInt, math.MaxInt, 0, 0, uint64(4))
	g := graph.Cycle(6)
	f.Fuzz(func(t *testing.T, loss, crash float64, crashBy, schedNode, schedRound int, churn float64, preserve bool,
		delayProb float64, maxDelay, adaptive, window, strikes int, seed uint64) {
		s := Spec{Loss: loss, CrashFraction: crash, CrashBy: crashBy, Churn: churn, ChurnPreserve: preserve,
			DelayProb: delayProb, MaxDelay: maxDelay, AdaptiveCrash: adaptive, AdaptiveWindow: window, AdaptiveStrikes: strikes}
		if schedRound != 0 {
			s.CrashSchedule = map[int]int{schedNode % g.N(): schedRound}
		}
		adv, err := s.Build(g, seed)
		if verr := s.Validate(); (verr != nil) != (err != nil) {
			t.Fatalf("%+v: Validate %v but Build %v", s, verr, err)
		}
		if err != nil {
			if adv != nil {
				t.Fatalf("%+v: Build errored and returned an adversary", s)
			}
			return
		}
		if s.IsZero() != (adv == nil) || s.IsZero() != (s.Descriptor() == "") {
			t.Fatalf("%+v: IsZero %v, built %v, descriptor %q", s, s.IsZero(), adv, s.Descriptor())
		}
		if adv == nil {
			return
		}
		again, _ := s.Build(g, seed)
		if a, b := answers(adv, g), answers(again, g); a != b {
			t.Fatalf("%+v: two builds answer %#x and %#x", s, a, b)
		}
	})
}
