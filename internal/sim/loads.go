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
// through a table sized for its degree. A sender whose sends each take
// their own link is charged without the table; otherwise each port holds a
// chain of per-channel loads. A chain is live only while its head is a
// load of the current call on that port, so what an earlier sender left
// in the table is never read, and the table is allocation-free once its
// load buffer has warmed up.
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

// chanLoad is the bit load of one (port, channel) pair within one call.
// Loads of the same port are chained through next (-1 terminates).
type chanLoad struct {
	port    int32
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
// channels never share a slot. While the ports ascend, each send is its
// link's only load — a broadcast, a walk step — and is charged on its own,
// without the table; a revisited port hands the whole round to chained.
func (t *LinkLoads) Charge(sends []Send) Charge {
	c := Charge{Messages: int64(len(sends))}
	last := -1
	for k := range sends {
		s := &sends[k]
		if s.Port <= last {
			return t.chained(sends)
		}
		last = s.Port
		bits := s.Payload.Bits()
		c.Bits += int64(bits)
		c.Slots = max(c.Slots, congest.Fragments(bits, t.budget))
		c.Channels = 1
	}
	return c
}

// chained is Charge for a sender with several loads on some link: loads
// chain per port, and channel counts per port are small, so the chain walk
// beats hashing. The maxima are kept as the loads grow, in the same pass.
func (t *LinkLoads) chained(sends []Send) Charge {
	c := Charge{Messages: int64(len(sends))}
	t.loads = t.loads[:0]
	for k := range sends {
		s := &sends[k]
		bits := s.Payload.Bits()
		c.Bits += int64(bits)
		port := &t.ports[s.Port]
		head := port.head - 1
		if head < 0 || int(head) >= len(t.loads) || t.loads[head].port != int32(s.Port) {
			// The port's first load of this call: anything it holds is an
			// earlier sender's.
			*port = portLoad{}
			head = -1
		}
		i := head
		for i >= 0 && t.loads[i].channel != s.Channel {
			i = t.loads[i].next
		}
		before := 0
		if i < 0 {
			// The channel's first payload on this port: a new load heads
			// the port's chain.
			i = int32(len(t.loads))
			t.loads = append(t.loads, chanLoad{port: int32(s.Port), channel: s.Channel, next: head})
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
	return c
}
