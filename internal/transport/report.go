package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"anonlead/internal/sim"
)

// Report is one node's account of one executed round, delivered to the
// coordinator, which folds it into its sim.Ledger and files the node in its
// sim.VisitSet. It carries exactly the facts the simulator's router
// observes centrally: whether the node is (now) halted, how many packets it
// sent out of each port, its side of the cost accounting, and its
// IdleUntil promise.
type Report struct {
	// Node is the reporting node's index.
	Node int
	// Halted reports that the node's machine has called Halt (latched:
	// once true, true in every later report).
	Halted bool
	// PerPort counts the packets sent out of each port this round: the one
	// source of the message, in-flight and delivery counts. Nil when
	// nothing was sent.
	PerPort []uint32
	// Bits, MaxSlots and MaxChannels are the node's sim.Charge for the
	// round (its Messages are the sum of PerPort): the sent-bit total, and
	// the maxima over its outgoing links of the CONGEST slot charge and
	// distinct channel count.
	Bits        int64
	MaxSlots    int
	MaxChannels int
	// Wake is the node's IdleUntil promise for the rounds after this one
	// (sim.Stepper.Wake; 0 for none).
	Wake int
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
	dst = binary.AppendUvarint(dst, uint64(r.Bits))
	dst = binary.AppendUvarint(dst, uint64(r.MaxSlots))
	dst = binary.AppendUvarint(dst, uint64(r.MaxChannels))
	dst = binary.AppendUvarint(dst, uint64(r.Wake))
	dst = binary.AppendUvarint(dst, uint64(len(r.Fail)))
	return append(dst, r.Fail...)
}

// DecodeReport decodes a FrameReport body, accepting exactly the bytes
// AppendReport writes.
func DecodeReport(b []byte) (Report, error) {
	rd := sim.NewWireReader(b)
	r := Report{Node: int(rd.Uvarint()), Halted: rd.Flags(1) != 0}
	// Every count takes at least one byte: refuse a claim the body cannot
	// hold before allocating for it.
	ports := rd.Uvarint()
	if ports > 1<<20 || ports > uint64(rd.Len()) {
		return Report{}, fmt.Errorf("transport: report claims %d ports in %d bytes", ports, rd.Len())
	}
	if ports > 0 {
		r.PerPort = make([]uint32, ports)
		for i := range r.PerPort {
			r.PerPort[i] = rd.Uint32()
		}
	}
	r.Bits, r.MaxSlots, r.MaxChannels = int64(rd.Uvarint()), int(rd.Uvarint()), int(rd.Uvarint())
	wake := rd.Uint32()
	r.Fail = string(rd.Bytes())
	if err := rd.Err(); err != nil {
		return Report{}, fmt.Errorf("transport: report: %w", err)
	}
	// A promise is a Step round, and no run reaches round 2³¹.
	if wake > math.MaxInt32 {
		return Report{}, fmt.Errorf("transport: report: wake round %d: %w", wake, sim.ErrWireOverflow)
	}
	r.Wake = int(wake)
	return r, nil
}
