package pumping

import (
	"testing"
	"testing/quick"
)

func TestLayoutArithmetic(t *testing.T) {
	l, err := NewLayout(10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.BlockLen != 4*50+2*10 {
		t.Fatalf("block %d", l.BlockLen)
	}
	if l.WheelN != 3*l.BlockLen {
		t.Fatalf("wheel %d", l.WheelN)
	}
	if l.WitnessLen() != 2*50+2*10 {
		t.Fatalf("witness len %d", l.WitnessLen())
	}
	if sep := l.BlockLen - l.WitnessLen(); sep != 100 {
		t.Fatalf("separation %d", sep)
	}
}

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(2, 50, 1); err == nil {
		t.Fatal("n=2 accepted")
	}
	if _, err := NewLayout(10, 0, 1); err == nil {
		t.Fatal("T=0 accepted")
	}
	if _, err := NewLayout(10, 50, 0); err == nil {
		t.Fatal("0 witnesses accepted")
	}
}

func TestSegmentsGeometry(t *testing.T) {
	l, _ := NewLayout(8, 20, 2)
	for w := 0; w < 2; w++ {
		left, right := l.Segments(w)
		if left[1]-left[0] != 8 || right[1]-right[0] != 8 {
			t.Fatalf("segments not n-sized: %v %v", left, right)
		}
		if left[1] != right[0] {
			t.Fatal("segments not adjacent")
		}
		// Core sits in the middle of the witness: T flank on each side.
		if left[0] != l.WitnessStart(w)+l.T {
			t.Fatal("core not centered")
		}
		if right[1]+l.T != l.WitnessStart(w)+l.WitnessLen() {
			t.Fatal("right flank mismatch")
		}
	}
}

func TestWitnessOfRoundTrip(t *testing.T) {
	if err := quick.Check(func(nRaw, tRaw, wRaw uint8) bool {
		n := int(nRaw%20) + 3
		tt := int(tRaw%50) + 1
		wc := int(wRaw%5) + 1
		l, err := NewLayout(n, tt, wc)
		if err != nil {
			return false
		}
		for w := 0; w < wc; w++ {
			start := l.WitnessStart(w)
			// First and last witness nodes map back to w.
			if l.WitnessOf(start) != w || l.WitnessOf(start+l.WitnessLen()-1) != w {
				return false
			}
			// First separation node maps to none.
			if l.WitnessOf(start+l.WitnessLen()) != -1 {
				return false
			}
		}
		return l.WitnessOf(-1) == -1 && l.WitnessOf(l.WheelN) == -1
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWheelGraph(t *testing.T) {
	l, _ := NewLayout(6, 10, 2)
	g := l.Wheel()
	if g.N() != l.WheelN || g.M() != l.WheelN {
		t.Fatalf("wheel size n=%d m=%d want %d", g.N(), g.M(), l.WheelN)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeCounts(t *testing.T) {
	l, _ := NewLayout(5, 10, 2)
	// Witness 0 occupies [0, 30); its core [10, 20): segments [10,15) and
	// [15,20). Separation runs after each witness.
	leaders := []int{12, 17, l.WitnessStart(1) + 2, l.WitnessLen() + 5}
	res := Analyze(l, leaders)
	if res.NLeaders() != 4 || !res.MultiLeader() {
		t.Fatalf("leaders %d", res.NLeaders())
	}
	if res.LeadersPerWitness[0] != 2 {
		t.Fatalf("witness 0 leaders %d want 2", res.LeadersPerWitness[0])
	}
	if res.LeadersPerWitness[1] != 1 {
		t.Fatalf("witness 1 leaders %d want 1", res.LeadersPerWitness[1])
	}
	if res.Separation != 1 {
		t.Fatalf("separation leaders %d want 1", res.Separation)
	}
	if res.SplitWitnesses != 1 {
		t.Fatalf("split witnesses %d want 1 (nodes 12 and 17 straddle the core)", res.SplitWitnesses)
	}
}

func TestAnalyzeNoLeaders(t *testing.T) {
	l, _ := NewLayout(5, 10, 1)
	res := Analyze(l, nil)
	if res.NLeaders() != 0 || res.MultiLeader() || res.SplitWitnesses != 0 {
		t.Fatalf("unexpected analysis: %+v", res)
	}
}

func TestAnalyzeCopiesLeaders(t *testing.T) {
	l, _ := NewLayout(5, 10, 1)
	leaders := []int{1, 2}
	res := Analyze(l, leaders)
	leaders[0] = 99
	if res.Leaders[0] == 99 {
		t.Fatal("Analyze aliased caller slice")
	}
}
