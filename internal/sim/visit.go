package sim

import (
	"math"
	"math/bits"
)

// VisitSet is the round's set of nodes with something to do, the one
// sim.Network steps and the transport coordinator releases: every node
// with mail, every node that made no IdleUntil promise, and every sleeper
// whose promised round has come. The fold of a round builds the next one
// as it goes, in ascending node order: Mail for each receiver a packet is
// delivered to, File for each node of the round once its sends are folded,
// then Advance. A node filed as stopped leaves the set, mail included, and
// the ledger delivers it nothing more, so it is never visited again.
//
// Finding the set costs one pass over its n/64 words; a sleeper is looked
// at again only in the round wakeAt names.
type VisitSet struct {
	visit    nodeSet // this round's nodes
	due      nodeSet // next round's nodes, built by the fold
	sleeping nodeSet // live nodes idling under a promise
	wake     []int32 // a sleeper's promised round
	wakeAt   int     // earliest promised round over sleeping (MaxInt: none)
}

// NewVisitSet returns the visit set of an n-node run's Init pseudo-round,
// which visits every node.
func NewVisitSet(n int) VisitSet {
	words := (n + 63) / 64
	sets := make(nodeSet, 3*words)
	s := VisitSet{
		visit:    sets[:words:words],
		due:      sets[words : 2*words : 2*words],
		sleeping: sets[2*words:],
		wake:     make([]int32, n),
	}
	s.reset()
	return s
}

// reset returns the set to the Init pseudo-round of a new run. What it
// keeps of sleeping and wake is rewritten when the Init round files every
// node.
func (s *VisitSet) reset() {
	clear(s.due)
	s.wakeAt = math.MaxInt
	for v := range s.wake {
		s.visit.add(v)
	}
}

// Mail puts node w, which was just handed a packet, into next round's set.
func (s *VisitSet) Mail(w int) { s.due.add(w) }

// File files node v after its round has been folded: a stopped node is
// dropped (its mail too), a node that promised to idle until wake >
// round+1 sleeps until then, and any other node is visited next round.
func (s *VisitSet) File(v, round, wake int, halted bool) {
	switch {
	case halted:
		s.sleeping.remove(v)
		s.due.remove(v)
	case wake > round+1:
		s.sleeping.add(v)
		s.wake[v] = int32(wake)
		s.wakeAt = min(s.wakeAt, wake)
	default:
		s.sleeping.remove(v)
		s.due.add(v)
	}
}

// Advance closes round: next round's set becomes the current one, joined
// by the sleepers whose promised round it is.
func (s *VisitSet) Advance(round int) {
	s.visit, s.due = s.due, s.visit
	clear(s.due)
	if round+1 >= s.wakeAt {
		s.wakeSleepers(round + 1)
	}
}

// wakeSleepers moves every sleeper whose promised round has come by round
// into the visit set, and sets wakeAt to the earliest promise of those
// left.
func (s *VisitSet) wakeSleepers(round int) {
	s.wakeAt = math.MaxInt
	for i, word := range s.sleeping {
		for ; word != 0; word &= word - 1 {
			v := i<<6 | bits.TrailingZeros64(word)
			if wake := int(s.wake[v]); wake > round {
				s.wakeAt = min(s.wakeAt, wake)
				continue
			}
			s.sleeping.remove(v)
			s.visit.add(v)
		}
	}
}

// Has reports whether node v is in the current round's set.
func (s *VisitSet) Has(v int) bool { return s.visit[v>>6]&(1<<(v&63)) != 0 }

// AppendNodes appends the current round's nodes to dst in ascending order.
func (s *VisitSet) AppendNodes(dst []int) []int {
	for i, word := range s.visit {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, i<<6|bits.TrailingZeros64(word))
		}
	}
	return dst
}

// nodeSet is a set of node indices, one bit per node.
type nodeSet []uint64

func (s nodeSet) add(v int)    { s[v>>6] |= 1 << (v & 63) }
func (s nodeSet) remove(v int) { s[v>>6] &^= 1 << (v & 63) }
