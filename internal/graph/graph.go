// Package graph provides the network-topology substrate for the leader
// election simulator: an undirected graph with per-node port labelings
// (the only structure anonymous nodes may rely on, per the paper's model),
// generators for the standard topology families used in the experiments,
// and basic traversal utilities.
//
// A node of degree d sees its incident links only as ports 0..d-1; the
// mapping from ports to neighbors is fixed at construction time and may be
// permuted adversarially (see PermutePorts) to exercise the protocols'
// independence from labelings.
package graph

import (
	"errors"
	"fmt"
	"sort"

	"anonlead/internal/rng"
)

// Graph is a finite, simple, undirected graph with a port labeling: for each
// node v, the incident edges are arranged in a fixed order, and port p of v
// leads to the p-th entry of that order. Graph is immutable after
// construction and safe for concurrent readers.
type Graph struct {
	// adj[v][p] = neighbor of v behind port p. Every adj[v] is a window
	// into one arena, nodes in id order, so walking all adjacency lists
	// walks sequential memory; each window's capacity is clipped to its
	// length, so an append through Adj reallocates instead of writing into
	// the next node's ports.
	adj [][]int32
	m   int // number of undirected edges
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is not usable; construct with NewBuilder.
type Builder struct {
	n     int
	deg   []int      // degree of each node so far
	edges [][2]int32 // in insertion order
	seen  map[[2]int32]struct{}
	loops bool
}

// NewBuilder returns a Builder for a graph on n nodes (labeled 0..n-1).
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic(fmt.Sprintf("graph: builder with non-positive n=%d", n))
	}
	return &Builder{
		n:    n,
		deg:  make([]int, n),
		seen: make(map[[2]int32]struct{}, n),
	}
}

// AddEdge adds the undirected edge {u, v}. Duplicate edges are ignored
// (simple graph); self-loops are rejected. AddEdge panics on out-of-range
// endpoints, which always indicates a generator bug.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		b.loops = true
		return
	}
	a, c := int32(u), int32(v)
	if a > c {
		a, c = c, a
	}
	key := [2]int32{a, c}
	if _, dup := b.seen[key]; dup {
		return
	}
	b.seen[key] = struct{}{}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
	b.deg[u]++
	b.deg[v]++
}

// HasEdge reports whether {u,v} has already been added.
func (b *Builder) HasEdge(u, v int) bool {
	a, c := int32(u), int32(v)
	if a > c {
		a, c = c, a
	}
	_, ok := b.seen[[2]int32{a, c}]
	return ok
}

// Graph finalizes the builder. The per-node port order is the insertion
// order of edges, which generators exploit to produce canonical labelings;
// call PermutePorts afterwards for adversarial labelings. The graph owns
// its adjacency: edges added to the builder afterwards do not reach it.
func (b *Builder) Graph() *Graph {
	// One arena, node v's window sized to its degree and filled by
	// replaying the edges: every append lands inside its own window, which
	// ends full, i.e. with its capacity clipped to its length.
	arena := make([]int32, 2*len(b.edges))
	adj := make([][]int32, b.n)
	off := 0
	for v, d := range b.deg {
		adj[v] = arena[off : off : off+d]
		off += d
	}
	for _, e := range b.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	return &Graph{adj: adj, m: len(b.edges)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbor returns the node behind port p of node v.
func (g *Graph) Neighbor(v, p int) int { return int(g.adj[v][p]) }

// Adj returns v's neighbor list in port order without copying it: the
// read-only view for inner loops (spectral kernels) that cannot afford
// Neighbors' copy or a Neighbor call per edge. Callers must not modify it.
func (g *Graph) Adj(v int) []int32 { return g.adj[v] }

// Neighbors returns a copy of v's neighbor list in port order. The copy
// keeps callers from aliasing internal state (copy-at-boundary).
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, len(g.adj[v]))
	for i, w := range g.adj[v] {
		out[i] = int(w)
	}
	return out
}

// PortTo returns the port of u that leads to v, or -1 if they are not
// adjacent.
func (g *Graph) PortTo(u, v int) int {
	for p, w := range g.adj[u] {
		if int(w) == v {
			return p
		}
	}
	return -1
}

// EdgeOffsets returns the prefix sums of node degrees: a slice of length
// n+1 with off[v+1]-off[v] = deg(v). It is the indexing scheme for flat
// per-port buffers (the simulator carves all per-edge state out of single
// backing arrays using these offsets).
func (g *Graph) EdgeOffsets() []int {
	off := make([]int, len(g.adj)+1)
	for v := range g.adj {
		off[v+1] = off[v] + len(g.adj[v])
	}
	return off
}

// ReversePorts returns the flat reverse-port table: for the edge behind
// port p of node v (at flat index EdgeOffsets()[v]+p, leading to w), the
// entry is the port of w that leads back to v. Built in O(m log n) via a
// sorted port index, so graph-sized setup never pays the O(deg) PortTo
// scan per edge (quadratic at hub nodes such as diam2 centers).
func (g *Graph) ReversePorts() []int32 {
	off := g.EdgeOffsets()
	idx := g.portsByNeighbor()
	rev := make([]int32, off[len(g.adj)])
	for v := range g.adj {
		base := off[v]
		for p, w := range g.adj[v] {
			rev[base+p] = portIn(g.adj[w], idx[w], int32(v))
		}
	}
	return rev
}

// portsByNeighbor returns, for every node, its ports ordered by the
// neighbor id behind them — a binary-searchable neighbor→port index.
// O(m log n) total; shared by ReversePorts and Validate. The per-node
// views are windows into one flat backing array and the sorter is reused,
// so the whole index costs a constant number of allocations.
func (g *Graph) portsByNeighbor() [][]int32 {
	off := g.EdgeOffsets()
	buf := make([]int32, off[len(g.adj)])
	idx := make([][]int32, len(g.adj))
	ps := &portSorter{}
	for v := range g.adj {
		ports := buf[off[v]:off[v+1]]
		for p := range ports {
			ports[p] = int32(p)
		}
		ps.nb, ps.ports = g.adj[v], ports
		sort.Sort(ps)
		idx[v] = ports
	}
	return idx
}

// portSorter sorts a node's port list by the neighbor id behind each port.
// It is reused across nodes to keep index construction allocation-free.
type portSorter struct{ nb, ports []int32 }

func (s *portSorter) Len() int           { return len(s.ports) }
func (s *portSorter) Less(i, j int) bool { return s.nb[s.ports[i]] < s.nb[s.ports[j]] }
func (s *portSorter) Swap(i, j int)      { s.ports[i], s.ports[j] = s.ports[j], s.ports[i] }

// portIn binary-searches idx (ports of a node sorted by neighbor id, over
// adjacency nb) for the port leading to v, returning -1 when absent.
func portIn(nb []int32, idx []int32, v int32) int32 {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nb[idx[mid]] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(idx) && nb[idx[lo]] == v {
		return idx[lo]
	}
	return -1
}

// Edges returns all undirected edges as (u,v) pairs with u < v, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := range g.adj {
		for _, w := range g.adj[u] {
			if u < int(w) {
				out = append(out, [2]int{u, int(w)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// MaxDegree returns the maximum node degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nb := range g.adj {
		if len(nb) > max {
			max = len(nb)
		}
	}
	return max
}

// MinDegree returns the minimum node degree.
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, nb := range g.adj[1:] {
		if len(nb) < min {
			min = len(nb)
		}
	}
	return min
}

// Volume returns the sum of degrees of the given node set (2m for all nodes).
func (g *Graph) Volume(set []int) int {
	vol := 0
	for _, v := range set {
		vol += len(g.adj[v])
	}
	return vol
}

// PermutePorts returns a copy of g in which every node's port order has been
// independently shuffled using r. Protocol correctness must be invariant
// under this transformation (anonymous networks expose no canonical ports);
// tests use it as a labeling adversary.
func (g *Graph) PermutePorts(r *rng.RNG) *Graph {
	arena := make([]int32, 2*g.m)
	adj := make([][]int32, len(g.adj))
	off := 0
	for v := range adj {
		end := off + copy(arena[off:], g.adj[v])
		nb := arena[off:end:end]
		nodeRNG := r.Split(uint64(v))
		nodeRNG.Shuffle(len(nb), func(i, j int) { nb[i], nb[j] = nb[j], nb[i] })
		adj[v], off = nb, end
	}
	return &Graph{adj: adj, m: g.m}
}

// Validate checks structural invariants: symmetry of the adjacency
// structure, no self-loops, no duplicate ports, and degree/edge-count
// consistency (handshake lemma). Generators are tested through this. Runs
// in O(m log n) via the sorted port index — no per-node maps, no linear
// PortTo scans — so validating a hub-heavy graph stays graph-sized.
func (g *Graph) Validate() error {
	degSum := 0
	for u := range g.adj {
		for _, w := range g.adj[u] {
			if int(w) == u {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if w < 0 || int(w) >= len(g.adj) {
				return fmt.Errorf("graph: node %d links out of range to %d", u, w)
			}
		}
		degSum += len(g.adj[u])
	}
	if degSum != 2*g.m {
		return fmt.Errorf("graph: handshake violation: degree sum %d != 2m %d", degSum, 2*g.m)
	}
	idx := g.portsByNeighbor()
	for u := range g.adj {
		nb, order := g.adj[u], idx[u]
		for i := 1; i < len(order); i++ {
			if nb[order[i]] == nb[order[i-1]] {
				return fmt.Errorf("graph: duplicate edge %d-%d", u, nb[order[i]])
			}
		}
		for _, w := range nb {
			if portIn(g.adj[w], idx[w], int32(u)) < 0 {
				return fmt.Errorf("graph: asymmetric edge %d->%d", u, w)
			}
		}
	}
	return nil
}

// ErrDisconnected is returned by generators that require connectivity when
// the sampled graph is not connected after the retry budget.
var ErrDisconnected = errors.New("graph: generated graph is not connected")
