package transport_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"anonlead/internal/core"
	"anonlead/internal/sim"
	"anonlead/internal/transport"
)

// TestDecodersRejectNonCanonical: bytes that no encoder writes, but that a
// lenient decoder would read as a message, are refused with the named
// sim.WireReader error. Each row but the last two was once accepted: as
// walkMsg{5, 1}, as walkMsg id 5, as a dissMsg with q = c = true, as a
// per-port count of 3 and as a report with junk after it. The last two
// are a report's wake round written with a needless continuation byte, and
// one past the last round a run can reach.
func TestDecodersRejectNonCanonical(t *testing.T) {
	ire, _ := core.Lookup("ire")
	payload := func(b []byte) error { _, err := ire.Wire.DecodePayload(b); return err }
	report := func(b []byte) error { _, err := transport.DecodeReport(b); return err }
	// A one-port report of node 3 whose count, byte 3, is replaced by the
	// count under test.
	reportWith := func(count uint64, trailing ...byte) []byte {
		enc := transport.AppendReport(nil, transport.Report{Node: 3, PerPort: []uint32{0}, Bits: 96})
		b := binary.AppendUvarint(enc[:3:3], count)
		return append(append(b, enc[4:]...), trailing...)
	}
	// A report of node 3 with no sends whose wake round, the byte before
	// the empty Fail string, is replaced by the bytes under test.
	reportWake := func(wake ...byte) []byte {
		enc := transport.AppendReport(nil, transport.Report{Node: 3})
		b := append(enc[:len(enc)-2:len(enc)-2], wake...)
		return append(b, enc[len(enc)-1])
	}
	const walk, diss = 2, 6 // core's wire tags
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		in     []byte
		want   error
	}{
		{"walkMsg with trailing bytes", payload, []byte{walk, 5, 1, 0, 0}, sim.ErrWireTrailing},
		{"walkMsg with an overlong varint", payload, []byte{walk, 0x85, 0x00, 1}, sim.ErrWireNonMinimal},
		{"dissMsg with unknown flag bits", payload, []byte{diss, 0xff, 7, 64}, sim.ErrWireFlags},
		{"report count beyond uint32", report, reportWith(1<<32 + 3), sim.ErrWireOverflow},
		{"report with trailing bytes", report, reportWith(3, 0), sim.ErrWireTrailing},
		{"report with an overlong wake varint", report, reportWake(0x85, 0x00), sim.ErrWireNonMinimal},
		{"report waking past round 2^31-1", report, reportWake(binary.AppendUvarint(nil, 1<<31)...), sim.ErrWireOverflow},
	} {
		if err := tc.decode(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: %x decoded with error %v, want %v", tc.name, tc.in, err, tc.want)
		}
	}
}
