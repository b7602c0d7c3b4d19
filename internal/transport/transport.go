// Package transport runs registered protocol machines as real
// message-passing nodes: one goroutine (or process) per node, exchanging
// length-prefixed framed messages over per-port links, with a coordinator
// round barrier enforcing the CONGEST model's global synchrony.
//
// The round itself is not re-implemented here. How a node steps is
// sim.Stepper, whose step sim.Network runs for its own nodes; what a round
// costs and when a run ends is sim.Ledger, the ledger sim.Network folds
// its router's sends into (with sim.LinkLoads and sim.RunLoop). This
// package adds the two layers the in-memory simulator does not need:
//
//   - The Coordinator decides who may step when: it releases a round over
//     a control plane, gathers exactly one Report per node, and folds
//     them into its sim.Ledger in node order — halts, deliveries, sends,
//     then the round close — so a Cluster is bit-compatible with
//     sim.Network: same seed, same leader, same round count, same cost
//     metrics. The in-process Cluster and the multi-process cmd/ledist
//     run the same Coordinator.
//   - A Transport wires a topology into a Fabric of per-port Links
//     (in-process channels, net.Pipe byte streams, or localhost TCP
//     sockets established through a seed-derived anonymous handshake),
//     and a driver owns one node: it pumps the node's sim.Stepper with
//     the packets that arrived over the wire, flushing the machine's sends
//     as framed messages and metering them in its own sim.LinkLoads.
//
// Synchrony is counted release: every node reports how many frames it sent
// out of each port in round t, and the coordinator's release of round t+1
// tells each node how many of those are addressed to it. No node steps
// round t+1 before exactly that many round-t frames have arrived, so a
// link the protocol left silent costs nothing. The coordinator starts a
// round only after all nodes reported the previous one, and stops exactly
// where the simulator would: when every node has halted and nothing is in
// flight.
package transport

import (
	"context"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
)

// Link is one endpoint of a framed, reliable, order-preserving connection
// between two node ports. A Link has a single writer (the node's driver)
// and a single reader (the node's per-port reader goroutine); Close may be
// called from any goroutine and unblocks both.
type Link interface {
	// WriteFrame sends one frame. Frames arrive at the peer in write
	// order.
	WriteFrame(f Frame) error
	// Flush pushes buffered frames to the peer. Drivers flush every link
	// once per round, after its data frames; a link with nothing buffered
	// must flush without a write.
	Flush() error
	// ReadFrame receives the next frame. The returned frame's Body is
	// only valid until the next ReadFrame call. It returns io.EOF after
	// the peer closed the link.
	ReadFrame() (Frame, error)
	// Close tears the link down, unblocking pending reads and writes.
	Close() error
}

// Fabric is a wired topology: links[v][p] is node v's endpoint of the
// connection behind its port p, connected to g.Neighbor(v, p)'s reverse
// port. Closing a fabric closes every link (idempotent).
type Fabric struct {
	Links [][]Link
}

// Close closes every link in the fabric.
func (f *Fabric) Close() error {
	var first error
	for _, ports := range f.Links {
		for _, l := range ports {
			if l == nil {
				continue
			}
			if err := l.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Transport builds the communication fabric for a topology. The seed
// parameterizes any transport-level randomness (the TCP handshake tokens);
// it never influences protocol behavior, which depends only on the
// machines' own seed-derived streams.
type Transport interface {
	// Connect wires g into a fabric. Implementations must deliver frames
	// reliably and in order per link; the round barrier supplies the
	// synchrony.
	Connect(ctx context.Context, g *graph.Graph, seed uint64) (*Fabric, error)
	// Name identifies the backend in errors.
	Name() string
}

// Runtime is the execution surface the election runner drives: the
// in-memory simulator re-expressed as one backend (sim.Network satisfies
// this interface as-is) and the real-transport Cluster as another. The
// embedded sim.View is what the registry's Converged/Collect hooks
// consume, so protocol outcome logic is backend-agnostic too.
type Runtime interface {
	sim.View

	// RunContext executes up to rounds rounds, stopping early on global
	// halt or context cancellation (see sim.Network.RunContext).
	RunContext(ctx context.Context, rounds int) (int, error)
	// RunUntilContext executes rounds until done(completed) reports true,
	// maxRounds is reached, the run globally halts, or ctx is cancelled.
	RunUntilContext(ctx context.Context, maxRounds int, done func(completed int) bool) (int, error)
	// AllHalted reports whether every node has stopped.
	AllHalted() bool
	// Metrics returns the accumulated cost accounting.
	Metrics() sim.Metrics
	// Close releases the backend's resources (goroutines, sockets).
	Close()
}

var _ Runtime = (*sim.Network)(nil)
