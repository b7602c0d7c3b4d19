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

// DecodePayload accepts exactly the bytes AppendPayload writes. Fields
// are read in composite-literal order, which Go evaluates left to right.
func (wireCodec) DecodePayload(src []byte) (sim.Payload, error) {
	r := sim.NewWireReader(src)
	var p sim.Payload
	switch tag := r.Byte(); tag {
	case wireFlood:
		p = floodMsg{id: r.Uvarint()}
	case wireWNToken:
		p = &wnTokenMsg{orig: r.Uvarint(), count: int(r.Uvarint())}
	case wireWNKill:
		p = &wnKillMsg{orig: r.Uvarint()}
	default:
		if len(src) > 0 {
			return nil, fmt.Errorf("baseline: unknown payload tag %d", tag)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("baseline: payload: %w", err)
	}
	return p, nil
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
