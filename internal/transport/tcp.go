package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// TCPTransport wires the topology with real TCP connections, one per
// edge, established through an anonymity-preserving handshake: the lower
// endpoint of each edge dials the higher endpoint's listener and opens
// with a Hello frame carrying the edge's seed-derived token plus the
// acceptor-side port number. Ports are exactly the local names the
// anonymous model grants a node, and the token authenticates the edge
// without either side revealing a global identity — so the handshake adds
// no knowledge the protocol machines could exploit, and determinism holds:
// the same seed elects the same leader in the same round as the simulator.
// Every node listens on loopback at a kernel-assigned port.
type TCPTransport struct{}

// handshakeTimeout bounds connection establishment when the caller gives
// no timeout of its own.
const handshakeTimeout = 10 * time.Second

// Name implements Transport.
func (TCPTransport) Name() string { return "tcp" }

// HandshakeTokens derives the per-edge handshake secrets from the run
// seed. Edges are indexed in the canonical enumeration order (lower
// endpoint ascending, then its ports ascending), which both endpoints of
// a distributed run can compute from the shared topology alone. The
// tokens authenticate edges, not nodes: no node index is derivable from
// what crosses the wire.
func HandshakeTokens(g *graph.Graph, seed uint64) []uint64 {
	root := rng.New(seed).SplitString("transport:handshake")
	tokens := make([]uint64, g.M())
	for i := range tokens {
		tokens[i] = root.DeriveSeed(uint64(i))
	}
	return tokens
}

// edgeIndices returns the canonical undirected edge index for every
// directed port slot: idx[off[v]+p] for node v's port p.
func edgeIndices(g *graph.Graph) []int {
	off := g.EdgeOffsets()
	revPort := g.ReversePorts()
	idx := make([]int, off[g.N()])
	id := 0
	for v := 0; v < g.N(); v++ {
		for p := 0; p < g.Degree(v); p++ {
			w := g.Neighbor(v, p)
			if w < v {
				continue
			}
			q := int(revPort[off[v]+p])
			idx[off[v]+p] = id
			idx[off[w]+q] = id
			id++
		}
	}
	return idx
}

// Connect implements Transport: one loopback listener per node, then every
// node wires its own ports exactly as a cmd/ledist node process does
// (ConnectNode), all under one context that the first failure cancels.
func (TCPTransport) Connect(ctx context.Context, g *graph.Graph, seed uint64) (*Fabric, error) {
	listeners := make([]net.Listener, g.N())
	defer func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for v := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		listeners[v] = ln
	}
	addrOf := func(w int) string { return listeners[w].Addr().String() }

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hs := newHandshake(ctx, g, seed, handshakeTimeout)
	fabric := &Fabric{Links: make([][]Link, g.N())}
	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	for v := range listeners {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			links, err := hs.connect(ctx, v, listeners[v], addrOf)
			if err != nil {
				// Only the first failure is a cause; the rest are the
				// cancellation it triggers.
				once.Do(func() { firstErr = err })
				cancel()
			}
			fabric.Links[v] = links
		}(v)
	}
	wg.Wait()
	if firstErr != nil {
		fabric.Close()
		return nil, firstErr
	}
	return fabric, nil
}

// ConnectNode establishes node v's data-plane links: the node accepts one
// connection per lower-indexed neighbor on ln, verifying each Hello token,
// and dials every higher-indexed neighbor at addrOf(w), opening with the
// edge's token and the acceptor-side port. The returned slice has one Link
// per port of v; on error every established connection is closed. timeout
// <= 0 selects handshakeTimeout (10s). On success ln is left open.
func ConnectNode(ctx context.Context, g *graph.Graph, v int, seed uint64, ln net.Listener, addrOf func(w int) string, timeout time.Duration) ([]Link, error) {
	return newHandshake(ctx, g, seed, timeout).connect(ctx, v, ln, addrOf)
}

// handshake is what every node of a run derives alike from the shared
// topology and seed before wiring its ports.
type handshake struct {
	g        *graph.Graph
	off      []int
	revPort  []int32
	edgeID   []int
	tokens   []uint64
	deadline time.Time
}

func newHandshake(ctx context.Context, g *graph.Graph, seed uint64, timeout time.Duration) *handshake {
	if timeout <= 0 {
		timeout = handshakeTimeout
	}
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return &handshake{
		g:        g,
		off:      g.EdgeOffsets(),
		revPort:  g.ReversePorts(),
		edgeID:   edgeIndices(g),
		tokens:   HandshakeTokens(g, seed),
		deadline: deadline,
	}
}

// token returns the secret of the edge behind node v's port p.
func (h *handshake) token(v, p int) uint64 { return h.tokens[h.edgeID[h.off[v]+p]] }

// connect wires node v's ports. The accept loop and the dial loop fill
// disjoint ports of links and are joined before anyone reads it. Whichever
// fails first cancels the other; if the caller's context ended, that is
// the error reported.
func (h *handshake) connect(parent context.Context, v int, ln net.Listener, addrOf func(w int) string) ([]Link, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	// A parked Accept only wakes when its listener dies.
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	links := make([]Link, h.g.Degree(v))
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			if perr := parent.Err(); perr != nil {
				err = perr
			}
			firstErr = err
		})
		cancel()
	}
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		if err := h.accept(v, ln, links); err != nil {
			fail(err)
		}
	}()
	if err := h.dial(ctx, v, addrOf, links); err != nil {
		fail(err)
	}
	<-accepted
	if firstErr != nil {
		for _, l := range links {
			if l != nil {
				l.Close()
			}
		}
		return nil, firstErr
	}
	return links, nil
}

// accept takes one connection per port of v whose peer has the lower index
// (that peer dials) and installs it at the port its Hello names, if the
// token is that edge's.
func (h *handshake) accept(v int, ln net.Listener, links []Link) error {
	want := 0
	for q := range links {
		if h.g.Neighbor(v, q) < v {
			want++
		}
	}
	for ; want > 0; want-- {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		conn.SetDeadline(h.deadline)
		l := NewStreamLink(conn)
		f, err := l.ReadFrame()
		if err != nil {
			conn.Close()
			return fmt.Errorf("transport: handshake read: %w", err)
		}
		q, token, err := parseHello(f)
		if err != nil {
			conn.Close()
			return err
		}
		if q < 0 || q >= len(links) || h.g.Neighbor(v, q) > v || token != h.token(v, q) || links[q] != nil {
			conn.Close()
			return fmt.Errorf("transport: bad handshake for acceptor port %d", q)
		}
		conn.SetDeadline(time.Time{})
		links[q] = l
	}
	return nil
}

// dial connects every port of v whose peer has the higher index, opening
// each with the edge's token and the acceptor-side port.
func (h *handshake) dial(ctx context.Context, v int, addrOf func(w int) string, links []Link) error {
	dialer := net.Dialer{Deadline: h.deadline}
	for p := range links {
		w := h.g.Neighbor(v, p)
		if w < v {
			continue
		}
		conn, err := dialer.DialContext(ctx, "tcp", addrOf(w))
		if err != nil {
			return fmt.Errorf("transport: dial edge (%d,%d): %w", v, w, err)
		}
		conn.SetDeadline(h.deadline)
		l := NewStreamLink(conn)
		var body [8 + binary.MaxVarintLen32]byte
		hello := appendHello(body[:0], h.token(v, p), int(h.revPort[h.off[v]+p]))
		err = l.WriteFrame(Frame{Type: FrameHello, Body: hello})
		if err == nil {
			err = l.Flush()
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("transport: hello edge (%d,%d): %w", v, w, err)
		}
		conn.SetDeadline(time.Time{})
		links[p] = l
	}
	return nil
}

// appendHello appends a Hello body to dst: the edge's token as a
// big-endian 64-bit word, then the acceptor-side port as a uvarint.
func appendHello(dst []byte, token uint64, port int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, token)
	return binary.AppendUvarint(dst, uint64(port))
}

// parseHello extracts (acceptor port, token) from a Hello frame, accepting
// exactly the body appendHello writes.
func parseHello(f Frame) (int, uint64, error) {
	if f.Type != FrameHello {
		return 0, 0, fmt.Errorf("transport: expected hello, got %v", f.Type)
	}
	r := sim.NewWireReader(f.Body)
	token, port := r.Uint64(), r.Uint32()
	if err := r.Err(); err != nil {
		return 0, 0, fmt.Errorf("transport: hello: %w", err)
	}
	return int(port), token, nil
}
