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

func (wireCodec) DecodePayload(src []byte) (sim.Payload, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("core: empty payload")
	}
	tag, body := src[0], src[1:]
	switch tag {
	case wireBC:
		kind, body, err := wireByte(body)
		if err != nil {
			return nil, err
		}
		source, body, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		size, _, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		return &bcMsg{kind: bcKind(kind), source: source, size: int(size)}, nil
	case wireWalk:
		id, body, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		count, _, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		return &walkMsg{id: id, count: int(count)}, nil
	case wireCC:
		source, body, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		id, _, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		return &ccMsg{source: source, id: id}, nil
	case wireAnnounce:
		id, body, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		depth, _, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		return announceMsg{id: id, depth: int(depth)}, nil
	case wireAvg:
		flags, body, err := wireByte(body)
		if err != nil {
			return nil, err
		}
		if len(body) < 8 {
			return nil, fmt.Errorf("core: truncated avgMsg")
		}
		phi := math.Float64frombits(binary.BigEndian.Uint64(body))
		body = body[8:]
		potBits, body, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		idldr, body, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		kldr, _, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		return &avgMsg{
			phi: phi, potBits: int(potBits),
			q: flags&1 != 0, c: flags&2 != 0,
			idldr: idldr, kldr: kldr,
		}, nil
	case wireDiss:
		flags, body, err := wireByte(body)
		if err != nil {
			return nil, err
		}
		idldr, body, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		kldr, _, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		return &dissMsg{q: flags&1 != 0, c: flags&2 != 0, idldr: idldr, kldr: kldr}, nil
	default:
		return nil, fmt.Errorf("core: unknown payload tag %d", tag)
	}
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func wireByte(b []byte) (uint8, []byte, error) {
	if len(b) == 0 {
		return 0, nil, fmt.Errorf("core: truncated payload")
	}
	return b[0], b[1:], nil
}

func wireUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("core: bad varint in payload")
	}
	return v, b[n:], nil
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
