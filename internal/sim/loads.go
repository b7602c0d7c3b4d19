package sim

import "anonlead/internal/congest"

// Charge is one sender's share of one round's cost accounting: what it
// transmitted, and the CONGEST slot charge and distinct channel count of
// its busiest outgoing link. A link is owned by its sender, so the round's
// maxima over links are the maxima over these per-sender charges.
type Charge struct {
	Messages, Bits  int64
	Slots, Channels int
}

// LinkLoads meters one sender's round, port by port: the simulator's
// router charges each node that sent through one table sized for the
// largest degree, a real-transport node driver charges its own sends
// through a table sized for its degree. Each port holds a chain of
// per-channel loads. The table is idle between calls, and allocation-free
// once its load buffer has warmed up.
type LinkLoads struct {
	budget int
	ports  []portLoad
	loads  []chanLoad
}

// portLoad is one port's running charge. head is the index+1 of its first
// chanLoad, so the zero value is an idle port.
type portLoad struct {
	head            int32
	slots, channels int32
}

// chanLoad is the bit load of one (port, channel) pair within one round.
// Loads of the same port are chained through next (-1 terminates).
type chanLoad struct {
	channel uint32
	next    int32
	bits    int
}

// NewLinkLoads builds a table for a sender of up to ports ports, charged in
// slots of budget bits.
func NewLinkLoads(ports, budget int) LinkLoads {
	return LinkLoads{budget: budget, ports: make([]portLoad, ports)}
}

// Charge meters one sender's sends of one round. A link's slot charge is
// the sum over its channels of ⌈bits/budget⌉ (at least 1): distinct
// channels never share a slot. Channel counts per port are small, so the
// chain walk beats hashing, and the maxima are kept as the loads grow, in
// the same pass; the ports the sends touched are idled before it returns.
func (t *LinkLoads) Charge(sends []Send) Charge {
	if len(sends) == 1 {
		// A lone payload is its link's only load: a walk step, the most
		// common send, needs no table.
		bits := sends[0].Payload.Bits()
		return Charge{Messages: 1, Bits: int64(bits), Slots: congest.Fragments(bits, t.budget), Channels: 1}
	}
	t.loads = t.loads[:0]
	c := Charge{Messages: int64(len(sends))}
	for _, s := range sends {
		bits := s.Payload.Bits()
		c.Bits += int64(bits)
		port := &t.ports[s.Port]
		i := port.head - 1
		for i >= 0 && t.loads[i].channel != s.Channel {
			i = t.loads[i].next
		}
		before := 0
		if i < 0 {
			// The channel's first payload on this port: a new load heads
			// the port's chain.
			i = int32(len(t.loads))
			t.loads = append(t.loads, chanLoad{channel: s.Channel, next: port.head - 1})
			port.head = i + 1
			port.channels++
		} else {
			before = congest.Fragments(t.loads[i].bits, t.budget)
		}
		t.loads[i].bits += bits
		port.slots += int32(congest.Fragments(t.loads[i].bits, t.budget) - before)
		c.Slots = max(c.Slots, int(port.slots))
		c.Channels = max(c.Channels, int(port.channels))
	}
	for _, s := range sends {
		t.ports[s.Port] = portLoad{}
	}
	return c
}
