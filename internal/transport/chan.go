package transport

import (
	"context"
	"io"
	"sync"

	"anonlead/internal/graph"
)

// wireEdges enumerates g's undirected edges once each (from the lower
// endpoint, in port order — the graph package builds simple graphs, so
// this covers every edge exactly once) and installs the endpoint pair mk
// returns. On error the partial fabric is torn down.
func wireEdges(g *graph.Graph, mk func(v, p, w, q int) (Link, Link, error)) (*Fabric, error) {
	n := g.N()
	links := make([][]Link, n)
	for v := range links {
		links[v] = make([]Link, g.Degree(v))
	}
	fabric := &Fabric{Links: links}
	revPort := g.ReversePorts()
	off := g.EdgeOffsets()
	for v := 0; v < n; v++ {
		for p := 0; p < g.Degree(v); p++ {
			w := g.Neighbor(v, p)
			if w < v {
				continue
			}
			q := int(revPort[off[v]+p])
			lv, lw, err := mk(v, p, w, q)
			if err != nil {
				fabric.Close()
				return nil, err
			}
			links[v][p] = lv
			links[w][q] = lw
		}
	}
	return fabric, nil
}

// ChanTransport wires the topology with in-process channel links: frames
// pass between driver goroutines as values, with no byte serialization of
// the framing itself (payloads are still encoded through the protocol's
// wire codec, so codec bugs surface here too). It is the fastest backend
// and the default for WithTransport tests.
type ChanTransport struct{}

// chanBuffer is the per-direction frame buffer of a channel link. Any size
// deadlocks nothing — each port has a dedicated reader goroutine — it only
// tunes how early writers park.
const chanBuffer = 64

// Name implements Transport.
func (ChanTransport) Name() string { return "chan" }

// Connect implements Transport.
func (ChanTransport) Connect(_ context.Context, g *graph.Graph, _ uint64) (*Fabric, error) {
	return wireEdges(g, func(v, p, w, q int) (Link, Link, error) {
		vw := make(chan Frame, chanBuffer)
		wv := make(chan Frame, chanBuffer)
		done := make(chan struct{})
		once := new(sync.Once)
		return &chanLink{out: vw, in: wv, done: done, once: once},
			&chanLink{out: wv, in: vw, done: done, once: once}, nil
	})
}

// chanLink is one endpoint of a channel edge. The two endpoints share the
// done channel: closing either side kills the edge, unblocking both
// directions (frames already buffered are still drained first).
type chanLink struct {
	out  chan<- Frame
	in   <-chan Frame
	done chan struct{}
	once *sync.Once
}

func (l *chanLink) WriteFrame(f Frame) error {
	if len(f.Body) > 0 {
		// The frame crosses goroutines by value; the caller reuses its
		// encode buffer, so the body must be owned by the frame.
		f.Body = append([]byte(nil), f.Body...)
	}
	select {
	case l.out <- f:
		return nil
	case <-l.done:
		return io.ErrClosedPipe
	}
}

func (l *chanLink) Flush() error { return nil }

func (l *chanLink) ReadFrame() (Frame, error) {
	select {
	case f := <-l.in:
		return f, nil
	default:
	}
	select {
	case f := <-l.in:
		return f, nil
	case <-l.done:
		// Prefer any frame that raced in ahead of the close.
		select {
		case f := <-l.in:
			return f, nil
		default:
			return Frame{}, io.EOF
		}
	}
}

func (l *chanLink) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}
