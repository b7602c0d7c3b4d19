package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"

	"anonlead/internal/graph"
)

// streamLink frames a reliable byte stream (net.Pipe, TCP): every frame
// actually serializes through the wire format. Reads and writes may run
// concurrently (one driver writer, one reader goroutine), matching
// net.Conn's concurrency contract; Close unblocks both.
type streamLink struct {
	conn io.ReadWriteCloser
	bw   *bufio.Writer
	br   *bufio.Reader
	wbuf []byte                // encode scratch, one frame at a time
	rbuf []byte                // decode scratch; returned Frame bodies alias it
	hdr  [framePrefixSize]byte // length-prefix scratch, kept off the heap per read
}

// streamBuffer sizes each endpoint's read and write buffer. A driver
// flushes every link once per round, so a buffer only ever holds one
// link's round: at most 184 B, in frames of at most 26 B, over ire,
// explicit, walknotify, floodmax and allflood on expander-64/256,
// cycle-48, hypercube-64, complete-16 and regular4-16, and revocable on
// complete-3/4/6. bufio's 4 KiB default made these buffers most of a wire
// election's allocated bytes (2m endpoints per run); a frame or round
// beyond 512 B still goes through, in more than one write or read.
const streamBuffer = 512

// NewStreamLink wraps an established byte-stream connection as a Link.
func NewStreamLink(conn io.ReadWriteCloser) Link {
	return &streamLink{conn: conn, bw: bufio.NewWriterSize(conn, streamBuffer), br: bufio.NewReaderSize(conn, streamBuffer)}
}

func (l *streamLink) WriteFrame(f Frame) error {
	buf, err := AppendFrame(l.wbuf[:0], f)
	if err != nil {
		return err
	}
	l.wbuf = buf
	_, err = l.bw.Write(buf)
	return err
}

func (l *streamLink) Flush() error { return l.bw.Flush() }

func (l *streamLink) ReadFrame() (Frame, error) {
	if _, err := io.ReadFull(l.br, l.hdr[:]); err != nil {
		return Frame{}, err
	}
	size := int(binary.BigEndian.Uint32(l.hdr[:]))
	switch {
	case size == 0:
		return Frame{}, ErrEmptyFrame
	case size > MaxFrameSize:
		return Frame{}, ErrFrameTooLarge
	}
	if cap(l.rbuf) < size {
		l.rbuf = make([]byte, size)
	}
	buf := l.rbuf[:size]
	if _, err := io.ReadFull(l.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return parseFrameBody(buf)
}

func (l *streamLink) Close() error { return l.conn.Close() }

// PipeTransport wires the topology with synchronous in-memory byte
// streams (net.Pipe): the full framing and flush path of the TCP backend
// without sockets, so tests exercise wire encoding and backpressure
// hermetically.
type PipeTransport struct{}

// Name implements Transport.
func (PipeTransport) Name() string { return "pipe" }

// Connect implements Transport.
func (PipeTransport) Connect(_ context.Context, g *graph.Graph, _ uint64) (*Fabric, error) {
	return wireEdges(g, func(v, p, w, q int) (Link, Link, error) {
		cv, cw := net.Pipe()
		return NewStreamLink(cv), NewStreamLink(cw), nil
	})
}
