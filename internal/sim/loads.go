package sim

import "anonlead/internal/congest"

// LinkLoads is the per-link bit-load table of one round, the input of the
// CONGEST slot charge. Whoever transmits feeds it: the simulator's router
// over all directed edges, a real-transport node driver over its own
// ports. Each link holds a chain of per-channel loads (valid only when
// epoch[link] == cur, so a new round clears nothing per link); loads and
// touched are truncated and refilled each round, so the table is
// allocation-free once its buffers have warmed up.
type LinkLoads struct {
	budget  int
	head    []int32
	epoch   []uint64
	cur     uint64
	loads   []chanLoad
	touched []int32
}

// chanLoad is the bit load of one (link, channel) pair within one round.
// Loads of the same link are chained through next (-1 terminates).
type chanLoad struct {
	channel uint32
	next    int32
	bits    int
}

// NewLinkLoads builds a table for links links charged in slots of budget
// bits.
func NewLinkLoads(links, budget int) LinkLoads {
	return LinkLoads{budget: budget, head: make([]int32, links), epoch: make([]uint64, links), cur: 1}
}

// Reset starts the next round with every link idle.
func (t *LinkLoads) Reset() {
	t.cur++
	t.loads = t.loads[:0]
	t.touched = t.touched[:0]
}

// Add accumulates bits on (link, channel). Channel counts per link per
// round are small, so the chain walk beats hashing.
func (t *LinkLoads) Add(link int32, channel uint32, bits int) {
	if t.epoch[link] != t.cur {
		t.epoch[link] = t.cur
		t.head[link] = int32(len(t.loads))
		t.loads = append(t.loads, chanLoad{channel: channel, bits: bits, next: -1})
		t.touched = append(t.touched, link)
		return
	}
	idx := t.head[link]
	for {
		if t.loads[idx].channel == channel {
			t.loads[idx].bits += bits
			return
		}
		next := t.loads[idx].next
		if next < 0 {
			t.loads[idx].next = int32(len(t.loads))
			t.loads = append(t.loads, chanLoad{channel: channel, bits: bits, next: -1})
			return
		}
		idx = next
	}
}

// Max returns the round's maxima over links of the slot charge and of the
// distinct channel count. A link's charge is the sum over its channels of
// ⌈bits/budget⌉ (at least 1): distinct channels never share a slot.
func (t *LinkLoads) Max() (maxSlots, maxChannels int) {
	budget := t.budget
	for _, link := range t.touched {
		slots, channels := 0, 0
		for idx := t.head[link]; idx >= 0; idx = t.loads[idx].next {
			slots += congest.Fragments(t.loads[idx].bits, budget)
			channels++
		}
		if slots > maxSlots {
			maxSlots = slots
		}
		if channels > maxChannels {
			maxChannels = channels
		}
	}
	return maxSlots, maxChannels
}
