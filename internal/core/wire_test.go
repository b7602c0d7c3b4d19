package core

import (
	"bytes"
	"reflect"
	"testing"

	"anonlead/internal/sim"
)

// wirePayloads returns one or more payloads of every wire tag.
func wirePayloads() []sim.Payload {
	return []sim.Payload{
		&bcMsg{kind: bcInvite, source: 1 << 40},
		&bcMsg{kind: bcSize, source: 12345, size: 77},
		&bcMsg{kind: bcStop, source: 12345},
		&walkMsg{id: 999, count: 3},
		&ccMsg{source: 5, id: 1<<63 + 1},
		announceMsg{id: 424242, depth: 9},
		&avgMsg{phi: 0.3125, potBits: 12, q: true, idldr: 7, kldr: 64},
		&avgMsg{phi: -1.5, c: true},
		&dissMsg{q: true, c: true, idldr: 7, kldr: 64},
	}
}

// TestWireCodecRoundTrip: every payload the paper's protocols send — all
// six wire tags — decodes to a value equal to the encoded one. IRE's and
// Revocable's messages travel as pointers into their machine's chunks, so
// for them equality is of what the pointers point at; the decoded payload
// must be a pointer too, or the receiving machine's type switch would drop
// it.
func TestWireCodecRoundTrip(t *testing.T) {
	for _, p := range wirePayloads() {
		body, err := wireCodec{}.AppendPayload(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wireCodec{}.DecodePayload(body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%T: decoded %+v, encoded %+v", p, got, p)
		}
		if got.Bits() != p.Bits() {
			t.Fatalf("%T: decoded payload costs %d bits, encoded %d", p, got.Bits(), p.Bits())
		}
	}
	if _, err := (wireCodec{}).AppendPayload(nil, walkMsg{id: 1, count: 1}); err == nil {
		t.Fatal("an IRE message sent by value must not encode")
	}
	for _, bad := range [][]byte{nil, {99}, {wireBC}, {wireWalk, 0x80}, {wireAvg, 0, 1, 2}} {
		if _, err := (wireCodec{}).DecodePayload(bad); err == nil {
			t.Fatalf("malformed payload %v decoded", bad)
		}
	}
}

// FuzzDecodePayload: arbitrary bytes decode to a payload or an error, never
// a panic, and a decoded payload re-encodes to exactly the input bytes.
func FuzzDecodePayload(f *testing.F) {
	for _, p := range wirePayloads() {
		body, err := wireCodec{}.AppendPayload(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{wireAvg, 3, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x80, 0x80, 0, 0, 0}) // NaN potential, overlong varint
	f.Add([]byte{wireBC, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := wireCodec{}.DecodePayload(data)
		if err != nil {
			return
		}
		body, err := wireCodec{}.AppendPayload(nil, p)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", p, err)
		}
		if !bytes.Equal(body, data) {
			t.Fatalf("decoded %T %+v from %x, which re-encodes as %x", p, p, data, body)
		}
	})
}
