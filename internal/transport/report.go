package transport

import (
	"encoding/binary"
	"fmt"
)

// Report is one node's account of one executed round, delivered to the
// coordinator, which folds it into its sim.Ledger. It carries exactly the
// facts the simulator's router observes centrally: whether the node is
// (now) halted, how many packets it sent out of each port, and its side of
// the cost accounting.
type Report struct {
	// Node is the reporting node's index.
	Node int
	// Halted reports that the node's machine has called Halt (latched:
	// once true, true in every later report).
	Halted bool
	// PerPort counts the packets sent out of each port this round: the one
	// source of both in-flight and delivery counts. Nil when nothing was
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
	// so the coordinator's gather never wedges, and it aborts the run.
	Fail string
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
