package transport

import (
	"encoding/binary"
	"fmt"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
)

// Report is one node's account of one executed round, delivered to the
// coordinator at the barrier. It carries exactly the facts the simulator's
// router observes centrally: whether the node is (now) halted, how many
// packets it sent out of each port, and its side of the cost accounting.
type Report struct {
	// Node is the reporting node's index.
	Node int
	// Halted reports that the node's machine has called Halt (latched:
	// once true, true in every later report).
	Halted bool
	// PerPort counts the packets sent out of each port this round: the one
	// ledger for both in-flight and delivery counts. Nil when nothing was
	// sent.
	PerPort []uint32
	// Msgs and Bits are the round's sent-message and sent-bit totals.
	Msgs int64
	Bits int64
	// MaxSlots and MaxChannels are the node's maxima over its outgoing
	// links of the round's CONGEST slot charge and distinct channel count.
	MaxSlots    int
	MaxChannels int
	// Fail carries a transport-level error; a failing node still reports
	// so the barrier never wedges, and the coordinator aborts the run.
	Fail string
}

// Barrier is the coordinator's fold of node reports into the run's
// accounting: what sim.Network's router observes centrally — halt
// latching, in-flight packet counting — recomputed from what each node
// says it sent, then closed through the same sim.Metrics.CloseRound. The
// same fold counts the frames addressed to each node, which the next
// release hands out so no node has to hear from every link. Its
// transcript over a run is bit-identical to the simulator's for the same
// seed — including the stop rule's quirks, such as counting a final drain
// round when the last halters' sends target already-halted peers.
type Barrier struct {
	g        *graph.Graph
	halted   []bool
	inflight int
	expect   []int // frames sent to each node in the last folded round
	metrics  sim.Metrics
}

// NewBarrier builds a barrier for g. congestBits <= 0 selects the
// simulator's default budget for g's size.
func NewBarrier(g *graph.Graph, congestBits int) *Barrier {
	if congestBits <= 0 {
		congestBits = sim.DefaultCongestBits(g.N())
	}
	b := &Barrier{g: g, halted: make([]bool, g.N()), expect: make([]int, g.N())}
	b.metrics.CongestBits = congestBits
	return b
}

// ShouldStop mirrors sim.Network.Step's stop rule: the run is over when
// every node has halted and no packets remain in flight.
func (b *Barrier) ShouldStop() bool { return b.inflight == 0 && b.AllHalted() }

// AllHalted reports whether every node has halted.
func (b *Barrier) AllHalted() bool {
	for _, h := range b.halted {
		if !h {
			return false
		}
	}
	return true
}

// Halted reports whether node v has halted.
func (b *Barrier) Halted(v int) bool { return b.halted[v] }

// HaltedCount returns the number of halted nodes.
func (b *Barrier) HaltedCount() int {
	count := 0
	for _, h := range b.halted {
		if h {
			count++
		}
	}
	return count
}

// Metrics returns a snapshot of the accumulated cost accounting.
func (b *Barrier) Metrics() sim.Metrics { return b.metrics }

// Round returns the next round to execute (the count of counted rounds so
// far, matching sim.Metrics.Rounds).
func (b *Barrier) Round() int { return b.metrics.Rounds }

// FinishRound folds one executed round's reports (indexed by node) into
// the accounting. counted=false is the Init pseudo-round, which charges
// link slots but not a base round.
//
// The fold runs in ascending node order because the simulator's router
// does: node v's sends are routed after the halts of all w <= v have been
// applied but before those of w > v, and the in-flight count — which feeds
// the stop rule — depends on that order.
func (b *Barrier) FinishRound(counted bool, reports []Report) {
	inflight := 0
	maxSlots, maxChannels := 0, 0
	clear(b.expect)
	for v := range reports {
		r := &reports[v]
		if r.Halted {
			b.halted[v] = true
		}
		for p, cnt := range r.PerPort {
			if cnt == 0 {
				continue
			}
			w := b.g.Neighbor(v, p)
			b.expect[w] += int(cnt)
			if !b.halted[w] {
				inflight += int(cnt)
			}
		}
		b.metrics.Messages += r.Msgs
		b.metrics.Bits += r.Bits
		if r.MaxSlots > maxSlots {
			maxSlots = r.MaxSlots
		}
		if r.MaxChannels > maxChannels {
			maxChannels = r.MaxChannels
		}
	}
	b.inflight = inflight
	b.metrics.CloseRound(counted, maxSlots, maxChannels)
}

// AppendReport appends r's wire encoding (the body of a FrameReport) to
// dst.
func AppendReport(dst []byte, r Report) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Node))
	var flags byte
	if r.Halted {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(r.PerPort)))
	for _, c := range r.PerPort {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = binary.AppendUvarint(dst, uint64(r.Msgs))
	dst = binary.AppendUvarint(dst, uint64(r.Bits))
	dst = binary.AppendUvarint(dst, uint64(r.MaxSlots))
	dst = binary.AppendUvarint(dst, uint64(r.MaxChannels))
	dst = binary.AppendUvarint(dst, uint64(len(r.Fail)))
	return append(dst, r.Fail...)
}

// DecodeReport decodes a FrameReport body.
func DecodeReport(b []byte) (Report, error) {
	var r Report
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("transport: truncated report")
		}
		b = b[n:]
		return v, nil
	}
	node, err := next()
	if err != nil {
		return r, err
	}
	r.Node = int(node)
	if len(b) == 0 {
		return r, fmt.Errorf("transport: truncated report")
	}
	r.Halted = b[0]&1 != 0
	b = b[1:]
	ports, err := next()
	if err != nil {
		return r, err
	}
	// Every count takes at least one byte: refuse a claim the body cannot
	// hold before allocating for it.
	if ports > 1<<20 || ports > uint64(len(b)) {
		return r, fmt.Errorf("transport: report claims %d ports in %d bytes", ports, len(b))
	}
	if ports > 0 {
		r.PerPort = make([]uint32, ports)
		for i := range r.PerPort {
			c, err := next()
			if err != nil {
				return r, err
			}
			r.PerPort[i] = uint32(c)
		}
	}
	msgs, err := next()
	if err != nil {
		return r, err
	}
	bits, err := next()
	if err != nil {
		return r, err
	}
	slots, err := next()
	if err != nil {
		return r, err
	}
	channels, err := next()
	if err != nil {
		return r, err
	}
	failLen, err := next()
	if err != nil {
		return r, err
	}
	if failLen > uint64(len(b)) {
		return r, fmt.Errorf("transport: truncated report")
	}
	r.Msgs, r.Bits = int64(msgs), int64(bits)
	r.MaxSlots, r.MaxChannels = int(slots), int(channels)
	r.Fail = string(b[:failLen])
	return r, nil
}
