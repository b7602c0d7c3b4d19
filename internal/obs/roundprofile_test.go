package obs

import (
	"reflect"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := Bucket(c.v); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestObserveRoundProfile(t *testing.T) {
	var p RoundProfile
	p.ObserveRound(0, 0) // round 1: silent
	p.ObserveRound(6, 0) // round 2: 6 msgs -> bucket 3
	p.ObserveRound(6, 2) // round 3: tie, peak stays at round 2; 2 halts -> bucket 2
	p.ObserveRound(1, 4) // round 4
	if p.Rounds != 4 || p.TotalMsgs != 13 {
		t.Fatalf("rounds=%d total=%d, want 4/13", p.Rounds, p.TotalMsgs)
	}
	if p.PeakMsgs != 6 || p.PeakRound != 2 {
		t.Fatalf("peak=%d@%d, want 6@2", p.PeakMsgs, p.PeakRound)
	}
	if want := []int64{1, 1, 0, 2}; !reflect.DeepEqual(p.MsgRounds, want) {
		t.Fatalf("MsgRounds = %v, want %v", p.MsgRounds, want)
	}
	if want := []int64{0, 0, 1, 1}; !reflect.DeepEqual(p.HaltRounds, want) {
		t.Fatalf("HaltRounds = %v, want %v", p.HaltRounds, want)
	}
}

func TestMergeIsElementwiseAndPeakDeterministic(t *testing.T) {
	var a, b RoundProfile
	a.ObserveRound(4, 1)
	a.ObserveRound(8, 0)
	b.ObserveRound(8, 3)

	m := &RoundProfile{}
	m.Merge(&a)
	m.Merge(&b)
	if m.Rounds != 3 || m.TotalMsgs != 20 {
		t.Fatalf("merged rounds=%d total=%d, want 3/20", m.Rounds, m.TotalMsgs)
	}
	// Tie on PeakMsgs=8: first-merged profile wins, so PeakRound is a's.
	if m.PeakMsgs != 8 || m.PeakRound != a.PeakRound {
		t.Fatalf("merged peak=%d@%d, want 8@%d", m.PeakMsgs, m.PeakRound, a.PeakRound)
	}

	// Merging into an empty profile copies the other side.
	var empty RoundProfile
	empty.Merge(&b)
	if !reflect.DeepEqual(&empty, &b) {
		t.Fatalf("empty.Merge(b) = %+v, want %+v", empty, b)
	}

	// nil merge is a no-op.
	before := *m
	m.Merge(nil)
	if !reflect.DeepEqual(*m, before) {
		t.Fatal("Merge(nil) mutated the profile")
	}
}

func TestRoundObserverDeltas(t *testing.T) {
	var p RoundProfile
	obs := p.RoundObserver()
	// Simulator feed is cumulative: 3 msgs, then 3 more, then none.
	obs(3, 0)
	obs(6, 2)
	obs(6, 5)
	if p.Rounds != 3 || p.TotalMsgs != 6 {
		t.Fatalf("rounds=%d total=%d, want 3/6", p.Rounds, p.TotalMsgs)
	}
	if p.PeakMsgs != 3 || p.PeakRound != 1 {
		t.Fatalf("peak=%d@%d, want 3@1", p.PeakMsgs, p.PeakRound)
	}
	// Halt deltas: round 2 halted 2, round 3 halted 3.
	if want := []int64{0, 0, 2}; !reflect.DeepEqual(p.HaltRounds, want) {
		t.Fatalf("HaltRounds = %v, want %v", p.HaltRounds, want)
	}
}
