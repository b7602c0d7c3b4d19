package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"

	"anonlead/internal/graph"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameData, Round: 0, Channel: 0, Body: []byte{1, 2, 3}},
		{Type: FrameData, Round: -1, Channel: 7, Body: []byte{0xff}},
		{Type: FramePortClosed, Round: 123456},
		{Type: FramePortClosed, Round: -1},
		{Type: FrameHello, Body: bytes.Repeat([]byte{0xab}, 9)},
		{Type: FrameData, Round: 1 << 30, Channel: 1<<32 - 1, Body: nil},
		{Type: FrameReport, Round: 3, Body: bytes.Repeat([]byte{7}, 1000)},
		{Type: FrameOutcome, Body: []byte(`{"ok":true}`)},
	}
	var buf []byte
	for _, f := range frames {
		var err error
		buf, err = AppendFrame(buf, f)
		if err != nil {
			t.Fatalf("AppendFrame(%+v): %v", f, err)
		}
	}
	rest := buf
	for i, want := range frames {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: DecodeFrame: %v", i, err)
		}
		if got.Type != want.Type || got.Round != want.Round || got.Channel != want.Channel ||
			!bytes.Equal(got.Body, want.Body) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all frames", len(rest))
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	valid, err := AppendFrame(nil, Frame{Type: FrameData, Round: 5, Channel: 2, Body: []byte{9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty buffer", nil, ErrTruncatedFrame},
		{"short prefix", []byte{0, 0, 0}, ErrTruncatedFrame},
		{"zero length", []byte{0, 0, 0, 0}, ErrEmptyFrame},
		{"oversized", []byte{0xff, 0xff, 0xff, 0xff}, ErrFrameTooLarge},
		{"just oversized", []byte{0, 16, 0, 1}, ErrFrameTooLarge},
		{"truncated body", valid[:len(valid)-1], ErrTruncatedFrame},
		{"truncated mid-header", valid[:5], ErrTruncatedFrame},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v want %v", tc.name, err, tc.want)
		}
	}
	// Unknown type and corrupt varints are errors but not sentinel ones.
	bad := append([]byte{0, 0, 0, 1}, 0xee)
	if _, _, err := DecodeFrame(bad); err == nil {
		t.Error("unknown frame type decoded without error")
	}
	badRound := []byte{0, 0, 0, 2, byte(FrameData), 0x80}
	if _, _, err := DecodeFrame(badRound); err == nil {
		t.Error("truncated round varint decoded without error")
	}
}

func TestAppendFrameRejectsOversizedBody(t *testing.T) {
	f := Frame{Type: FrameData, Body: make([]byte, MaxFrameSize)}
	if _, err := AppendFrame(nil, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v want ErrFrameTooLarge", err)
	}
	prefix := []byte{1, 2, 3}
	out, err := AppendFrame(prefix, f)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v want ErrFrameTooLarge", err)
	}
	if !bytes.Equal(out, prefix) {
		t.Fatalf("failed append modified dst: %v", out)
	}
}

func FuzzDecodeFrame(f *testing.F) {
	seedFrames := []Frame{
		{Type: FrameData, Round: 0, Channel: 1, Body: []byte{1, 2, 3}},
		{Type: FrameData, Round: -1},
		{Type: FramePortClosed, Round: 99},
		{Type: FrameHello, Body: make([]byte, 12)},
	}
	for _, sf := range seedFrames {
		buf, err := AppendFrame(nil, sf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < framePrefixSize+1 || n > len(data) {
			t.Fatalf("decoded length %d out of range for %d input bytes", n, len(data))
		}
		// A decoded frame must re-encode to exactly the bytes it was
		// decoded from: the decoder accepts only canonical encodings.
		re, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("decoded %+v from %x, which re-encodes as %x", fr, data[:n], re)
		}
	})
}

// FuzzParseHello: the Hello body is the first thing an unauthenticated TCP
// peer sends, parsed before its token is checked. Arbitrary bytes parse to
// (port, token) or an error, never a panic, and a parsed body re-encodes
// to exactly the input bytes.
func FuzzParseHello(f *testing.F) {
	f.Add(appendHello(nil, 0xfeedface, 3))
	f.Add(appendHello(nil, 1<<63, 1<<31))
	f.Add([]byte{1, 2, 3})
	f.Add(append(appendHello(nil, 7, 0x85), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		port, token, err := parseHello(Frame{Type: FrameHello, Body: data})
		if err != nil {
			return
		}
		if enc := appendHello(nil, token, port); !bytes.Equal(enc, data) {
			t.Fatalf("parsed port %d token %#x from %x, which re-encodes as %x", port, token, data, enc)
		}
	})
}

func TestReportRoundTrip(t *testing.T) {
	reports := []Report{
		{},
		{Node: 3, Halted: true, PerPort: []uint32{0, 2, 1}, Bits: 96, MaxSlots: 2, MaxChannels: 1},
		{Node: 5, PerPort: []uint32{1}, Bits: 12, MaxSlots: 1, MaxChannels: 1, Wake: 1<<31 - 1},
		{Node: 1000, Fail: "broken pipe"},
	}
	for i, want := range reports {
		got, err := DecodeReport(AppendReport(nil, want))
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("report %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := DecodeReport([]byte{3}); err == nil {
		t.Error("truncated report decoded without error")
	}
	// A 3-byte body claiming 2^20 ports is refused before the slice for
	// them is made.
	huge := binary.AppendUvarint([]byte{3, 0}, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeReport(huge)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("port count beyond the body decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Errorf("refusing a %d-byte body claiming 2^20 ports allocated %d bytes", len(huge), got)
	}
}

// replayPlane hands a coordinator one scripted report per node, in order.
type replayPlane struct{ reps []Report }

func (p *replayPlane) Release(int, []int, []int) error { return nil }

func (p *replayPlane) Next() (int, Report, error) {
	r := p.reps[0]
	p.reps = p.reps[1:]
	return r.Node, r, nil
}

// FuzzDecodeReport: arbitrary bytes decode to a report or an error, never
// a panic, and a decoded report re-encodes to exactly the input bytes. The
// coordinator then folds it as one node's report of a round on a 4-cycle,
// beside empty reports from the other nodes: whatever the node claims, the
// fold returns an error or completes, never panics.
func FuzzDecodeReport(f *testing.F) {
	for _, r := range []Report{
		{},
		{Node: 3, Halted: true, PerPort: []uint32{0, 2, 1}, Bits: 96, MaxSlots: 2, MaxChannels: 1},
		{Node: 2, PerPort: []uint32{1}, Bits: 12, MaxSlots: 1, MaxChannels: 1, Wake: 40},
		{Node: 1000, Fail: "broken pipe"},
	} {
		f.Add(AppendReport(nil, r))
	}
	f.Add(binary.AppendUvarint([]byte{3, 0}, 1<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReport(data)
		if err != nil {
			return
		}
		if enc := AppendReport(nil, r); !bytes.Equal(enc, data) {
			t.Fatalf("decoded %+v from %x, which re-encodes as %x", r, data, enc)
		}
		reps := []Report{{Node: 0}, {Node: 1}, {Node: 2}, {Node: 3}}
		r.Node = int(uint64(r.Node) % 4)
		reps[r.Node] = r
		// An error is a fine outcome for a lying report; only a panic fails.
		_ = NewCoordinator(graph.Cycle(4), &replayPlane{reps}, nil).Init()
	})
}

// TestStreamLinkBeyondBuffer: a frame larger than a link's buffer, and a
// round whose frames together overflow it, arrive intact and in order over
// net.Pipe and over loopback TCP.
func TestStreamLinkBeyondBuffer(t *testing.T) {
	tcp := func() (net.Conn, net.Conn, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		defer ln.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, _ := ln.Accept()
			accepted <- c
		}()
		a, err := net.Dial("tcp", ln.Addr().String())
		b := <-accepted
		if err == nil && b == nil {
			err = errors.New("accept failed")
		}
		return a, b, err
	}
	pipe := func() (net.Conn, net.Conn, error) {
		a, b := net.Pipe()
		return a, b, nil
	}
	// One frame of three buffers, then one round of 64 small frames
	// (≈ 1.9 KiB), each flushed once.
	rounds := [][]Frame{{{Type: FrameData, Round: 1, Channel: 2, Body: bytes.Repeat([]byte{0xab}, 3*streamBuffer)}}}
	var burst []Frame
	for i := 0; i < 64; i++ {
		burst = append(burst, Frame{Type: FrameData, Round: 2, Channel: uint32(i), Body: bytes.Repeat([]byte{byte(i)}, 24)})
	}
	rounds = append(rounds, burst)
	for name, dial := range map[string]func() (net.Conn, net.Conn, error){"pipe": pipe, "tcp": tcp} {
		t.Run(name, func(t *testing.T) {
			ca, cb, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			a, b := NewStreamLink(ca), NewStreamLink(cb)
			defer a.Close()
			defer b.Close()
			sent := make(chan error, 1)
			go func() {
				for _, round := range rounds {
					for _, f := range round {
						if err := a.WriteFrame(f); err != nil {
							sent <- err
							return
						}
					}
					if err := a.Flush(); err != nil {
						sent <- err
						return
					}
				}
				sent <- nil
			}()
			for _, round := range rounds {
				for _, want := range round {
					got, err := b.ReadFrame()
					if err != nil {
						t.Fatal(err)
					}
					if got.Type != want.Type || got.Round != want.Round || got.Channel != want.Channel || !bytes.Equal(got.Body, want.Body) {
						t.Fatalf("got round %d channel %d with %d bytes, want round %d channel %d with %d bytes",
							got.Round, got.Channel, len(got.Body), want.Round, want.Channel, len(want.Body))
					}
				}
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamLinkExchange drives two endpoints of a net.Pipe link from
// concurrent goroutines, each writing 10k data frames flushed in batches
// of 100, and checks every frame arrives intact and in order. This is the
// transport's -race workout.
func TestStreamLinkExchange(t *testing.T) {
	const frames = 10000
	c1, c2 := net.Pipe()
	a := NewStreamLink(c1)
	b := NewStreamLink(c2)

	send := func(l Link) error {
		body := make([]byte, 16)
		for i := 0; i < frames; i++ {
			for j := range body {
				body[j] = byte(i + j)
			}
			if err := l.WriteFrame(Frame{Type: FrameData, Round: i, Channel: uint32(i % 3), Body: body}); err != nil {
				return fmt.Errorf("frame %d: %w", i, err)
			}
			if i%100 == 99 {
				if err := l.Flush(); err != nil {
					return err
				}
			}
		}
		if err := l.WriteFrame(Frame{Type: FramePortClosed, Round: frames}); err != nil {
			return err
		}
		return l.Flush()
	}
	recv := func(l Link) error {
		want := 0
		for {
			f, err := l.ReadFrame()
			if err != nil {
				return err
			}
			switch f.Type {
			case FrameData:
				if f.Round != want || f.Channel != uint32(want%3) {
					return fmt.Errorf("frame %d: got round %d channel %d", want, f.Round, f.Channel)
				}
				for j, by := range f.Body {
					if by != byte(want+j) {
						return fmt.Errorf("frame %d byte %d corrupted", want, j)
					}
				}
				want++
			case FramePortClosed:
				if want != frames {
					return fmt.Errorf("port closed after %d frames, want %d", want, frames)
				}
				return nil
			default:
				return fmt.Errorf("unexpected %v frame", f.Type)
			}
		}
	}

	errc := make(chan error, 4)
	go func() { errc <- send(a) }()
	go func() { errc <- send(b) }()
	go func() { errc <- recv(a) }()
	go func() { errc <- recv(b) }()
	for i := 0; i < 4; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	if _, err := b.ReadFrame(); err == nil {
		t.Fatal("read after peer close succeeded")
	} else if err != io.EOF && err != io.ErrClosedPipe && err != io.ErrUnexpectedEOF {
		// net.Pipe reports io.ErrClosedPipe; TCP reports io.EOF. Either
		// way the reader unblocks.
		t.Logf("post-close read error: %v", err)
	}
}
