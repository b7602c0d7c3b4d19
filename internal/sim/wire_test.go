package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// TestWireReaderReadsWhatEncodersWrite: every read takes back exactly the
// bytes its encoder writes, at the edges of its range, and leaves nothing
// behind.
func TestWireReaderReadsWhatEncodersWrite(t *testing.T) {
	var b []byte
	b = append(b, 0xab, 0b101)
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.AppendUvarint(b, math.MaxUint32)
	b = binary.BigEndian.AppendUint64(b, 0x0102030405060708)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abc"...)
	b = append(b, 9, 9)
	r := NewWireReader(b)
	if got := r.Byte(); got != 0xab {
		t.Errorf("Byte = %#x", got)
	}
	if got := r.Flags(0b111); got != 0b101 {
		t.Errorf("Flags = %#b", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Uint32(); got != math.MaxUint32 {
		t.Errorf("Uint32 = %d", got)
	}
	if got := r.Uint64(); got != 0x0102030405060708 {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Bytes(); string(got) != "abc" {
		t.Errorf("Bytes = %q", got)
	}
	if r.Len() != 2 || !errors.Is(r.Err(), ErrWireTrailing) {
		t.Errorf("before Rest: Len %d, Err %v; want 2 and ErrWireTrailing", r.Len(), r.Err())
	}
	if got := r.Rest(); !bytes.Equal(got, []byte{9, 9}) || r.Err() != nil {
		t.Errorf("Rest = %v, then Err %v", got, r.Err())
	}
}

// TestWireReaderRefusals: each read refuses what its encoder never writes
// with a named error, and the first failure sticks through later reads.
func TestWireReaderRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(r *WireReader)
		want error
	}{
		{"empty byte", nil, func(r *WireReader) { r.Byte() }, ErrWireTruncated},
		{"flag outside mask", []byte{4}, func(r *WireReader) { r.Flags(3) }, ErrWireFlags},
		{"truncated uvarint", []byte{0x80}, func(r *WireReader) { r.Uvarint() }, ErrWireTruncated},
		{"overlong uvarint", []byte{0x85, 0x00}, func(r *WireReader) { r.Uvarint() }, ErrWireNonMinimal},
		{"uvarint past 64 bits", bytes.Repeat([]byte{0xff}, 11), func(r *WireReader) { r.Uvarint() }, ErrWireOverflow},
		{"overlong varint", []byte{0x81, 0x80, 0x00}, func(r *WireReader) { r.Varint() }, ErrWireNonMinimal},
		{"uint32 past 32 bits", binary.AppendUvarint(nil, 1<<32), func(r *WireReader) { r.Uint32() }, ErrWireOverflow},
		{"short word", make([]byte, 7), func(r *WireReader) { r.Uint64() }, ErrWireTruncated},
		{"bytes past the end", []byte{3, 'a', 'b'}, func(r *WireReader) { r.Bytes() }, ErrWireTruncated},
		{"trailing byte", []byte{1, 2}, func(r *WireReader) { r.Byte() }, ErrWireTrailing},
		{"first failure sticks", []byte{0x85, 0x00, 7}, func(r *WireReader) { r.Uvarint(); r.Byte(); r.Uint64() }, ErrWireNonMinimal},
	} {
		r := NewWireReader(tc.in)
		tc.read(&r)
		if err := r.Err(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
