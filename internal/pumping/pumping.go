// Package pumping implements the probabilistic pumping-wheel construction
// from the paper's impossibility proof (Section 5.1, Theorem 2, Figures
// 1-2) as an executable experiment.
//
// The theorem says: without knowledge of the network size, no algorithm
// solves Irrevocable Leader Election in any time bound T(n) with constant
// probability. The proof plants many disjoint "witnesses" — paths of
// length 2T(n)+2n whose middle 2n nodes form a core of two n-node
// segments — around a huge cycle C_N, separated by at least 2T(n) filler
// nodes so their executions are independent for T(n) rounds; some witness
// then replays a winning configuration in both segments, electing two
// leaders.
//
// The experiment here runs any terminating election protocol that was
// parameterized with a presumed size n on C_N with N ≫ n and measures how
// often the network ends up with more than one leader — the empirical
// content of the theorem.
//
// See docs/ARCHITECTURE.md for where this sits in the paper-to-code map.
package pumping

import (
	"fmt"

	"anonlead/internal/graph"
)

// Layout describes the witness geometry of a pumping wheel (Figure 1).
type Layout struct {
	// PresumedN is the n the protocol believes in.
	PresumedN int
	// T is the protocol's running time T(n) in rounds.
	T int
	// Witnesses is the number of planted witnesses.
	Witnesses int
	// BlockLen is the length of one witness block: a witness (2T+2n
	// nodes) plus 2T separation nodes.
	BlockLen int
	// WheelN is the total cycle size N = Witnesses · BlockLen.
	WheelN int
}

// NewLayout computes the wheel geometry for a protocol that presumes n
// nodes and runs T rounds, planting the given number of witnesses. It
// mirrors the proof's N = multiple of (4T+2n): each block is one witness
// of 2T+2n nodes followed by 2T separation nodes.
func NewLayout(presumedN, t, witnesses int) (Layout, error) {
	var l Layout
	if presumedN < 3 {
		return l, fmt.Errorf("pumping: presumed n must be >= 3, got %d", presumedN)
	}
	if t < 1 {
		return l, fmt.Errorf("pumping: T must be >= 1, got %d", t)
	}
	if witnesses < 1 {
		return l, fmt.Errorf("pumping: witnesses must be >= 1, got %d", witnesses)
	}
	l.PresumedN = presumedN
	l.T = t
	l.Witnesses = witnesses
	l.BlockLen = 4*t + 2*presumedN
	l.WheelN = witnesses * l.BlockLen
	return l, nil
}

// Wheel returns the cycle C_N for the layout.
func (l Layout) Wheel() *graph.Graph { return graph.Cycle(l.WheelN) }

// WitnessStart returns the first node index of witness w (its left
// T-node flank).
func (l Layout) WitnessStart(w int) int { return w * l.BlockLen }

// WitnessLen returns the node count of one witness: 2T + 2n.
func (l Layout) WitnessLen() int { return 2*l.T + 2*l.PresumedN }

// CoreStart returns the first node index of witness w's core (the 2n
// middle nodes).
func (l Layout) CoreStart(w int) int { return l.WitnessStart(w) + l.T }

// Segments returns the node ranges [lo, hi) of the two n-node segments of
// witness w's core (Figure 1).
func (l Layout) Segments(w int) (left, right [2]int) {
	cs := l.CoreStart(w)
	left = [2]int{cs, cs + l.PresumedN}
	right = [2]int{cs + l.PresumedN, cs + 2*l.PresumedN}
	return left, right
}

// WitnessOf returns the witness index containing node v, or -1 if v lies
// in a separation run.
func (l Layout) WitnessOf(v int) int {
	if v < 0 || v >= l.WheelN {
		return -1
	}
	w := v / l.BlockLen
	if v-l.WitnessStart(w) < l.WitnessLen() {
		return w
	}
	return -1
}

// Result summarizes one pumping-wheel trial.
type Result struct {
	Layout Layout
	// Leaders lists the node indices that raised the leader flag.
	Leaders []int
	// LeadersPerWitness[w] counts leaders inside witness w (including
	// flanks); leaders in separation runs are counted in Separation.
	LeadersPerWitness []int
	Separation        int
	// SplitWitnesses counts witnesses whose core segments both contain a
	// leader — the proof's "two leaders in one witness" event.
	SplitWitnesses int
}

// NLeaders returns the total number of leaders.
func (r Result) NLeaders() int { return len(r.Leaders) }

// MultiLeader reports whether the election violated uniqueness.
func (r Result) MultiLeader() bool { return len(r.Leaders) > 1 }

// Analyze maps elected leader node indices onto the witness geometry.
func Analyze(l Layout, leaders []int) Result {
	res := Result{
		Layout:            l,
		Leaders:           append([]int(nil), leaders...),
		LeadersPerWitness: make([]int, l.Witnesses),
	}
	for _, v := range leaders {
		w := l.WitnessOf(v)
		if w < 0 {
			res.Separation++
			continue
		}
		res.LeadersPerWitness[w]++
	}
	for w := 0; w < l.Witnesses; w++ {
		left, right := l.Segments(w)
		var inLeft, inRight bool
		for _, v := range leaders {
			if v >= left[0] && v < left[1] {
				inLeft = true
			}
			if v >= right[0] && v < right[1] {
				inRight = true
			}
		}
		if inLeft && inRight {
			res.SplitWitnesses++
		}
	}
	return res
}
