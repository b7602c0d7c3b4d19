package core

import "anonlead/internal/congest"

// slotTagBits is the size of the multiplexing slot tag carried by cautious
// broadcast and convergecast messages: the paper multiplexes at most
// 4c·log n parallel executions into a super-round, so a slot index needs
// O(log log n + log c) bits; 6 bits covers every simulable configuration.
const slotTagBits = 6

// bcKind enumerates cautious-broadcast message kinds (Algorithms 2-4).
type bcKind uint8

const (
	bcInvite     bcKind = iota + 1 // carries the source ID, spans the tree
	bcSize                         // child -> parent confirmed subtree size
	bcActivate                     // parent -> child re-activation prompt
	bcDeactivate                   // parent -> child passivation
	bcStop                         // flood: territory reached its cap
)

// bcKindBits encodes the 5 kinds.
const bcKindBits = 3

// bcMsg is a cautious-broadcast message. Like walkMsg and ccMsg it is sent
// as a pointer into its machine's sim.Msgs ring (boxing a pointer into
// sim.Payload allocates nothing), so receivers copy what they keep. Source
// identifies the execution (the initiating candidate's random ID); in the
// paper the execution is identified positionally by the super-round slot,
// so only invites pay for the full ID while the rest pay the slot tag.
// Bits reflects that.
type bcMsg struct {
	kind   bcKind
	source uint64 // execution tag: candidate ID
	size   int    // confirmed subtree size, for bcSize
}

// Bits returns the CONGEST size of the message.
func (m bcMsg) Bits() int {
	switch m.kind {
	case bcInvite:
		return bcKindBits + congest.BitLen(m.source)
	case bcSize:
		return bcKindBits + slotTagBits + congest.BitLen(uint64(m.size))
	default:
		return bcKindBits + slotTagBits
	}
}

// walkMsg moves count random-walk tokens carrying the sender's current
// maximum walk ID across one link (Algorithm 5, random-walk()).
type walkMsg struct {
	id    uint64
	count int
}

// Bits returns the CONGEST size: the ID plus the token multiplicity
// counter (log x bits, cf. the paper's CONGEST argument in Section 4).
func (m walkMsg) Bits() int {
	return congest.BitLen(m.id) + congest.BitLen(uint64(m.count))
}

// ccMsg propagates the largest walk ID toward a territory root
// (Algorithm 5, convergecast()).
type ccMsg struct {
	source uint64 // execution tag: which tree this climbs
	id     uint64 // largest walk ID seen
}

// Bits returns the CONGEST size (slot tag + ID).
func (m ccMsg) Bits() int {
	return slotTagBits + congest.BitLen(m.id)
}

// walkChannel is the logical channel used by the (single) random-walk
// phase; cautious broadcast and convergecast executions use the low bits
// of their candidate ID.
const walkChannel = uint32(0xffffffff)

// chanOf maps an execution tag (candidate ID) to a simulator channel.
func chanOf(source uint64) uint32 {
	c := uint32(source)
	if c == walkChannel {
		c--
	}
	return c
}
