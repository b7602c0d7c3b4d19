package sim

import (
	"encoding/binary"
	"errors"
	"math"
)

// WireCodec serializes a protocol's payloads for the real-transport
// backend. The in-memory simulator delivers payloads by reference and
// never needs one; a socket carries bytes, so every protocol that wants to
// run distributed registers a codec alongside its builder. Decode must
// reproduce a value equal to the encoded one — the determinism contract
// (same seed, same leader, same rounds on either backend) depends on
// machines observing identical payloads.
type WireCodec interface {
	// AppendPayload appends p's encoding to dst and returns the extended
	// slice. It fails on payload types the codec does not know.
	AppendPayload(dst []byte, p Payload) ([]byte, error)
	// DecodePayload decodes one payload from src, accepting exactly the
	// bytes a single AppendPayload writes (it reads through a WireReader).
	DecodePayload(src []byte) (Payload, error)
}

// WireReader decodes the bytes another process wrote: payload codecs,
// frame headers, round reports, the TCP hello and ledist's start count all
// read through it. Each read consumes from the front of the input; the
// first failure sticks, so a decoder reads every field and asks Err once
// at the end. Every read accepts only the canonical form its encoder
// writes (binary.AppendUvarint, AppendVarint, BigEndian.AppendUint64), and
// Err refuses trailing bytes, so decoding and re-encoding an accepted
// input reproduces it byte for byte.
type WireReader struct {
	b   []byte
	err error
}

// The WireReader failures; callers wrap them with what was being decoded.
var (
	// ErrWireTruncated reports input ending mid-field.
	ErrWireTruncated = errors.New("wire: truncated input")
	// ErrWireNonMinimal reports a varint with needless continuation
	// bytes (0x85 0x00 for 5), which no encoder writes.
	ErrWireNonMinimal = errors.New("wire: non-minimal varint")
	// ErrWireOverflow reports a varint beyond its field's range.
	ErrWireOverflow = errors.New("wire: varint overflows its field")
	// ErrWireFlags reports a flag byte with bits outside its mask.
	ErrWireFlags = errors.New("wire: unknown flag bits")
	// ErrWireTrailing reports bytes left after the last field.
	ErrWireTrailing = errors.New("wire: trailing bytes")
)

// NewWireReader reads b, which it aliases.
func NewWireReader(b []byte) WireReader { return WireReader{b: b} }

// Err returns the first failure, or ErrWireTrailing when the reads left
// input unconsumed.
func (r *WireReader) Err() error {
	if r.err == nil && len(r.b) > 0 {
		return ErrWireTrailing
	}
	return r.err
}

// Len is the number of unread bytes.
func (r *WireReader) Len() int { return len(r.b) }

func (r *WireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Byte reads one byte.
func (r *WireReader) Byte() uint8 {
	if len(r.b) == 0 {
		r.fail(ErrWireTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Flags reads one byte whose set bits must all lie in mask.
func (r *WireReader) Flags(mask uint8) uint8 {
	v := r.Byte()
	if v&^mask != 0 {
		r.fail(ErrWireFlags)
		return 0
	}
	return v
}

// Uvarint reads a minimal unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(ErrWireTruncated)
		return 0
	case n < 0:
		r.fail(ErrWireOverflow)
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail(ErrWireNonMinimal)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a minimal zigzag-encoded signed varint.
func (r *WireReader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Uint32 reads a minimal unsigned varint that must fit in 32 bits.
func (r *WireReader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail(ErrWireOverflow)
		return 0
	}
	return uint32(v)
}

// Uint64 reads a fixed 8-byte big-endian word.
func (r *WireReader) Uint64() uint64 {
	if len(r.b) < 8 {
		r.fail(ErrWireTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Bytes reads a uvarint length and then that many bytes, which alias the
// input.
func (r *WireReader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.fail(ErrWireTruncated)
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// Rest reads the rest of the input, which it aliases.
func (r *WireReader) Rest() []byte {
	v := r.b
	r.b = nil
	return v
}

// LeaderReporter is implemented by protocol machines that can report their
// node's leadership claim without the caller knowing the concrete machine
// type. The registry's default collector reads every machine through it,
// and the multi-process launcher uses it to collect election outcomes from
// node processes that only hold their own machine (the registry's Collect
// hooks need the whole network and run coordinator-side instead).
type LeaderReporter interface {
	// LeaderInfo reports whether this node claims leadership, and under
	// which random ID (0 when not a leader).
	LeaderInfo() (leader bool, id uint64)
}
