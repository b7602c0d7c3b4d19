package baseline

import (
	"encoding/binary"
	"fmt"

	"anonlead/internal/sim"
)

// wireCodec serializes the baseline protocols' payloads for the
// real-transport backend: one-byte tag, then the fields as unsigned
// varints. CONGEST accounting always uses Payload.Bits, never wire size.
type wireCodec struct{}

const (
	wireFlood uint8 = iota + 1
	wireWNToken
	wireWNKill
)

func (wireCodec) AppendPayload(dst []byte, p sim.Payload) ([]byte, error) {
	switch m := p.(type) {
	case floodMsg:
		dst = append(dst, wireFlood)
		return binary.AppendUvarint(dst, m.id), nil
	case *wnTokenMsg:
		dst = append(dst, wireWNToken)
		dst = binary.AppendUvarint(dst, m.orig)
		return binary.AppendUvarint(dst, uint64(m.count)), nil
	case *wnKillMsg:
		dst = append(dst, wireWNKill)
		return binary.AppendUvarint(dst, m.orig), nil
	default:
		return dst, fmt.Errorf("baseline: no wire encoding for payload type %T", p)
	}
}

func (wireCodec) DecodePayload(src []byte) (sim.Payload, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("baseline: empty payload")
	}
	tag, body := src[0], src[1:]
	switch tag {
	case wireFlood:
		id, _, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		return floodMsg{id: id}, nil
	case wireWNToken:
		orig, body, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		count, _, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		return &wnTokenMsg{orig: orig, count: int(count)}, nil
	case wireWNKill:
		orig, _, err := wireUvarint(body)
		if err != nil {
			return nil, err
		}
		return &wnKillMsg{orig: orig}, nil
	default:
		return nil, fmt.Errorf("baseline: unknown payload tag %d", tag)
	}
}

func wireUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("baseline: bad varint in payload")
	}
	return v, b[n:], nil
}

// LeaderInfo implements sim.LeaderReporter.
func (m *FloodMachine) LeaderInfo() (bool, uint64) {
	o := m.Output()
	return o.Leader, o.ID
}

// LeaderInfo implements sim.LeaderReporter.
func (m *WalkNotifyMachine) LeaderInfo() (bool, uint64) {
	o := m.Output()
	return o.Leader, o.ID
}

var (
	_ sim.LeaderReporter = (*FloodMachine)(nil)
	_ sim.LeaderReporter = (*WalkNotifyMachine)(nil)
	_ sim.WireCodec      = wireCodec{}
)
