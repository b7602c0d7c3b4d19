package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"anonlead/internal/sim"
)

// FrameType discriminates the wire frames. Data-plane frames flow between
// node ports; control-plane frames flow between a node process and the
// cmd/ledist coordinator.
type FrameType uint8

const (
	// FrameHello opens a TCP data link: the dialer proves it is this
	// edge's legitimate peer with the seed-derived token and names the
	// acceptor-side port. No node identifier crosses the wire.
	FrameHello FrameType = iota + 1
	// FrameData carries one protocol payload: Round is the sender's round
	// (-1 for Init), Channel the logical execution, Body the encoded
	// payload.
	FrameData
	// FramePortClosed is the final frame a halting sender ever writes on
	// this link, after its data frames of Round, so the reader can tell a
	// finished peer from a dead one.
	FramePortClosed
	// FrameJoin enrolls a node process with the coordinator (body: the
	// JSON object {"node": index, "addr": data-plane listen address}).
	FrameJoin
	// FramePlan carries the JSON run plan from coordinator to node.
	FramePlan
	// FrameStart releases one round (Round is the round to execute; body:
	// the uvarint count of data frames sent to the node the round before).
	FrameStart
	// FrameReport carries a node's encoded round Report back.
	FrameReport
	// FrameStop tells a node process the run is over.
	FrameStop
	// FrameOutcome carries a node's final JSON outcome summary.
	FrameOutcome
)

// Frame is one wire message. The encoding is a 4-byte big-endian length
// (of everything after it), the type byte, the round as a zigzag varint,
// the channel as a uvarint, then the body.
type Frame struct {
	Type    FrameType
	Round   int
	Channel uint32
	Body    []byte
}

// MaxFrameSize bounds the encoded size of a frame after the length prefix.
// CONGEST payloads are O(log n) bits, so a megabyte is far beyond any
// legitimate frame; the bound exists to fail fast on corrupt or hostile
// length prefixes instead of allocating their claimed size.
const MaxFrameSize = 1 << 20

const framePrefixSize = 4

var (
	// ErrFrameTooLarge reports a length prefix beyond MaxFrameSize.
	ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrameSize")
	// ErrEmptyFrame reports a zero-length frame (no type byte).
	ErrEmptyFrame = errors.New("transport: zero-length frame")
	// ErrTruncatedFrame reports a buffer ending mid-frame.
	ErrTruncatedFrame = errors.New("transport: truncated frame")
)

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice. It fails (returning dst unmodified) only when the encoded frame
// would exceed MaxFrameSize.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, byte(f.Type))
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], int64(f.Round))
	dst = append(dst, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(f.Channel))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, f.Body...)
	size := len(dst) - start - framePrefixSize
	if size > MaxFrameSize {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(size))
	return dst, nil
}

// DecodeFrame decodes the first frame in b, returning the frame and the
// number of bytes it occupied. The returned frame's Body aliases b. A
// buffer that ends before the frame does yields ErrTruncatedFrame, so
// streaming callers can distinguish "need more data" from corruption.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < framePrefixSize {
		return Frame{}, 0, ErrTruncatedFrame
	}
	size := int(binary.BigEndian.Uint32(b))
	switch {
	case size == 0:
		return Frame{}, 0, ErrEmptyFrame
	case size > MaxFrameSize:
		return Frame{}, 0, ErrFrameTooLarge
	case len(b) < framePrefixSize+size:
		return Frame{}, 0, ErrTruncatedFrame
	}
	f, err := parseFrameBody(b[framePrefixSize : framePrefixSize+size])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, framePrefixSize + size, nil
}

// parseFrameBody decodes the post-prefix portion of a frame (shared by the
// buffer decoder above and the stream reader, which has already consumed
// the length prefix). b must be the exact frame contents.
func parseFrameBody(b []byte) (Frame, error) {
	r := sim.NewWireReader(b)
	f := Frame{Type: FrameType(r.Byte())}
	if f.Type < FrameHello || f.Type > FrameOutcome {
		return Frame{}, fmt.Errorf("transport: unknown frame type %d", f.Type)
	}
	f.Round, f.Channel, f.Body = int(r.Varint()), r.Uint32(), r.Rest()
	if err := r.Err(); err != nil {
		return Frame{}, fmt.Errorf("transport: %v frame header: %w", f.Type, err)
	}
	return f, nil
}

// String names the frame type for errors and logs.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameData:
		return "data"
	case FramePortClosed:
		return "port-closed"
	case FrameJoin:
		return "join"
	case FramePlan:
		return "plan"
	case FrameStart:
		return "start"
	case FrameReport:
		return "report"
	case FrameStop:
		return "stop"
	case FrameOutcome:
		return "outcome"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}
