package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"anonlead/internal/sim"
)

// wireCodec serializes the paper protocols' payloads (cautious broadcast,
// random walk, convergecast, announcement, revocable diffusion and
// dissemination) for the real-transport backend. The encoding is a
// one-byte type tag followed by the struct fields as unsigned varints
// (floats as fixed 64-bit IEEE bits); it exists for fidelity, not
// compactness — CONGEST bit accounting always uses Payload.Bits, never the
// wire size.
type wireCodec struct{}

// Wire tags, one per payload type. Tags are part of the node-to-node wire
// contract within a single run only (both ends run the same binary), so
// renumbering is safe.
const (
	wireBC uint8 = iota + 1
	wireWalk
	wireCC
	wireAnnounce
	wireAvg
	wireDiss
)

func (wireCodec) AppendPayload(dst []byte, p sim.Payload) ([]byte, error) {
	switch m := p.(type) {
	case *bcMsg:
		dst = append(dst, wireBC, uint8(m.kind))
		dst = binary.AppendUvarint(dst, m.source)
		dst = binary.AppendUvarint(dst, uint64(m.size))
		return dst, nil
	case *walkMsg:
		dst = append(dst, wireWalk)
		dst = binary.AppendUvarint(dst, m.id)
		dst = binary.AppendUvarint(dst, uint64(m.count))
		return dst, nil
	case *ccMsg:
		dst = append(dst, wireCC)
		dst = binary.AppendUvarint(dst, m.source)
		dst = binary.AppendUvarint(dst, m.id)
		return dst, nil
	case announceMsg:
		dst = append(dst, wireAnnounce)
		dst = binary.AppendUvarint(dst, m.id)
		dst = binary.AppendUvarint(dst, uint64(m.depth))
		return dst, nil
	case *avgMsg:
		dst = append(dst, wireAvg, boolByte(m.q)|boolByte(m.c)<<1)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.phi))
		dst = binary.AppendUvarint(dst, uint64(m.potBits))
		dst = binary.AppendUvarint(dst, m.idldr)
		dst = binary.AppendUvarint(dst, m.kldr)
		return dst, nil
	case *dissMsg:
		dst = append(dst, wireDiss, boolByte(m.q)|boolByte(m.c)<<1)
		dst = binary.AppendUvarint(dst, m.idldr)
		dst = binary.AppendUvarint(dst, m.kldr)
		return dst, nil
	default:
		return dst, fmt.Errorf("core: no wire encoding for payload type %T", p)
	}
}

// DecodePayload accepts exactly the bytes AppendPayload writes. Fields
// are read in composite-literal order, which Go evaluates left to right.
func (wireCodec) DecodePayload(src []byte) (sim.Payload, error) {
	r := sim.NewWireReader(src)
	var p sim.Payload
	switch tag := r.Byte(); tag {
	case wireBC:
		p = &bcMsg{kind: bcKind(r.Byte()), source: r.Uvarint(), size: int(r.Uvarint())}
	case wireWalk:
		p = &walkMsg{id: r.Uvarint(), count: int(r.Uvarint())}
	case wireCC:
		p = &ccMsg{source: r.Uvarint(), id: r.Uvarint()}
	case wireAnnounce:
		p = announceMsg{id: r.Uvarint(), depth: int(r.Uvarint())}
	case wireAvg:
		flags := r.Flags(3)
		p = &avgMsg{
			q: flags&1 != 0, c: flags&2 != 0,
			phi: math.Float64frombits(r.Uint64()), potBits: int(r.Uvarint()),
			idldr: r.Uvarint(), kldr: r.Uvarint(),
		}
	case wireDiss:
		flags := r.Flags(3)
		p = &dissMsg{q: flags&1 != 0, c: flags&2 != 0, idldr: r.Uvarint(), kldr: r.Uvarint()}
	default:
		if len(src) > 0 {
			return nil, fmt.Errorf("core: unknown payload tag %d", tag)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: payload: %w", err)
	}
	return p, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// LeaderInfo implements sim.LeaderReporter.
func (m *IREMachine) LeaderInfo() (bool, uint64) {
	o := m.Output()
	return o.Leader, o.ID
}

// LeaderInfo implements sim.LeaderReporter.
func (m *ExplicitMachine) LeaderInfo() (bool, uint64) {
	o := m.Output()
	return o.IRE.Leader, o.IRE.ID
}

// LeaderInfo implements sim.LeaderReporter.
func (m *RevocableMachine) LeaderInfo() (bool, uint64) {
	o := m.Output()
	return o.Leader, o.LeaderID
}

var (
	_ sim.LeaderReporter = (*IREMachine)(nil)
	_ sim.LeaderReporter = (*ExplicitMachine)(nil)
	_ sim.LeaderReporter = (*RevocableMachine)(nil)
	_ sim.WireCodec      = wireCodec{}
)
