// Package anonlead is a library for randomized leader election in
// anonymous networks, reproducing Kowalski & Mosteiro, "Time and
// Communication Complexity of Leader Election in Anonymous Networks"
// (ICDCS 2021, arXiv:2101.04400).
//
// Elections run over a synchronous CONGEST simulation of an anonymous
// network (nodes have no identifiers, only ports). The protocols are
// named entries in a registry — Protocols() enumerates them — and every
// one executes through the same session surface:
//
//	out, err := nw.Run(ctx, anonlead.ProtoIRE, anonlead.WithSeed(42))
//
// Registered protocols:
//
//   - ire: Irrevocable Leader Election for known network size — the
//     paper's Section 4 protocol (cautious broadcast territories, random
//     walk probes, convergecast) using Õ(√(n·tmix/Φ)) messages and
//     O(tmix·log² n) rounds, with high probability.
//   - explicit: ire followed by a leader announcement flood that makes
//     every node learn the leader and builds a leader-rooted BFS spanning
//     tree (the paper's Section 3 extension).
//   - revocable: Revocable ("blind") Leader Election for unknown network
//     size — the paper's Section 5.2 protocol. By Theorem 2 no algorithm
//     can irrevocably elect without knowing the size, so the returned
//     leader is a stabilized revocable choice backed by a certificate.
//   - floodmax: the Kutten-class FloodMax baseline (known n and D).
//   - allflood: naive FloodMax with every node a candidate.
//   - walknotify: the Gilbert-class random-walk baseline (known n, tmix).
//
// Run composes with options: WithTransport moves the nodes onto real
// message-passing links, WithAdversary injects deterministic faults
// (message loss, crash-stop, churn, delivery jitter) described by an
// AdversarySpec, WithObserver streams per-round cost metrics, and
// WithPresumedN misreports the network size for knowledge ablations
// (after Dieudonné & Pelc). The context cancels long runs cooperatively.
//
// Topologies come from NewNetwork (named families) or NewNetworkFromEdges
// (custom edge lists). Run feeds the protocols the network's size and its
// profiled mixing time, conductance and diameter; Network.Profile is the
// one way to read that profile. Every election is deterministic in the
// provided seed: same network, protocol, seed and options — byte-identical
// outcome.
package anonlead

import (
	"fmt"
	"sync"
	"sync/atomic"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
)

// Network is an anonymous network instance: a connected topology plus its
// structural profile (diameter, mixing time, conductance, isoperimetric
// number), computed lazily when a protocol or Profile first needs it and
// cached. Construct with NewNetwork or NewNetworkFromEdges. A Network's
// topology is immutable and it is safe for concurrent elections.
//
// A Network keeps the simulator of its last simulated run and resets it
// for the next one instead of building another, so repeated elections do
// not allocate it again. The kept simulator is graph-sized — mailboxes,
// contexts, node streams and visit set, 42.5 MB at n = 10⁵ on the
// expander — and holds none of the finished run's machines, payloads,
// observer or adversary. Concurrent elections each get a simulator of
// their own, and one of them is kept.
type Network struct {
	g    *graph.Graph
	seed uint64 // construction seed; feeds the estimate regime's sampling

	mu   sync.Mutex
	prof *spectral.Profile // nil until first computed

	idle atomic.Pointer[sim.Network] // the last simulated run's, closed; nil while a run holds it
}

// NewNetwork builds a named topology family instance on n nodes. Random
// families (regular, gnp, expander) are drawn deterministically from seed
// with the same derivation the experiment harness uses, so
// NewNetwork(family, n, seed) is exactly the workload graph behind the
// corresponding sweep cell in the benchmark artifacts. Construction is
// graph-sized work: the structural profile is computed lazily when a
// protocol or Profile first needs it.
func NewNetwork(family string, n int, seed uint64) (*Network, error) {
	g, err := graph.Seeded(family, n, seed)
	if err != nil {
		return nil, err
	}
	return newNetwork(g, seed)
}

// NewNetworkFromEdges builds a network from an explicit undirected edge
// list over nodes 0..n-1. The graph must be connected and simple: an edge
// listed twice (in either orientation) is one edge, while n < 1, an
// endpoint outside [0,n) or a self-loop is an error naming the edge.
func NewNetworkFromEdges(n int, edges [][2]int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w, got n=%d", errEmptyGraph, n)
	}
	for i, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("anonlead: edge %d (%d,%d) out of range [0,%d)", i, e[0], e[1], n)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("anonlead: edge %d is a self-loop at node %d", i, e[0])
		}
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return newNetwork(b.Graph(), 0)
}

// NewNetworkFromGraph wraps an already-built internal topology that no
// family name derives (the pumping wheel, a benchmark's hand-built graph).
// The parameter type lives in an internal package, so only this module's
// own packages can call it; external users construct networks with
// NewNetwork or NewNetworkFromEdges. The estimate-regime profile of a
// wrapped graph samples from seed 0.
func NewNetworkFromGraph(g *graph.Graph) (*Network, error) {
	return newNetwork(g, 0)
}

func newNetwork(g *graph.Graph, seed uint64) (*Network, error) {
	if g == nil || g.N() == 0 {
		return nil, errEmptyGraph
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		// Rejected on every construction path (even though profiling is
		// lazy) so Profile and the profiled defaults can never observe a
		// disconnected graph.
		return nil, graph.ErrDisconnected
	}
	return &Network{g: g, seed: seed}, nil
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.g.N() }
