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
	off []int   // off[v] = flat index of (v, port 0); len n+1, off[n] = 2m
	rev []int32 // rev[off[v]+p] = port of adj[v][p] that leads back to v
	m   int     // number of undirected edges
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is not usable; construct with NewBuilder.
type Builder struct {
	n     int
	deg   []int      // degree of each node so far
	edges [][2]int32 // in insertion order
	seen  map[[2]int32]struct{}
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
// (simple graph), and so are self-loops, which generators rely on. AddEdge
// panics on out-of-range endpoints, which always indicates a generator bug.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
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

// Graph finalizes the builder. The per-node port order is the insertion
// order of edges, which generators exploit to produce canonical labelings;
// call PermutePorts afterwards for adversarial labelings. The graph owns
// its adjacency: edges added to the builder afterwards do not reach it.
func (b *Builder) Graph() *Graph {
	// One arena, node v's window sized to its degree and filled by
	// replaying the edges: every append lands inside its own window, which
	// ends full, i.e. with its capacity clipped to its length. Replaying
	// edge {u, w} assigns both of its ports, so the reverse-port table is
	// written in the same pass.
	arena := make([]int32, 2*len(b.edges))
	rev := make([]int32, len(arena))
	adj := make([][]int32, b.n)
	off := make([]int, b.n+1)
	for v, d := range b.deg {
		off[v+1] = off[v] + d
		adj[v] = arena[off[v]:off[v]:off[v+1]]
	}
	for _, e := range b.edges {
		u, w := e[0], e[1]
		pu, pw := len(adj[u]), len(adj[w])
		adj[u] = append(adj[u], w)
		adj[w] = append(adj[w], u)
		rev[off[u]+pu], rev[off[w]+pw] = int32(pw), int32(pu)
	}
	return &Graph{adj: adj, off: off, rev: rev, m: len(b.edges)}
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
// read-only view for inner loops (spectral kernels) that cannot afford a
// Neighbor call per edge. Callers must not modify it.
func (g *Graph) Adj(v int) []int32 { return g.adj[v] }

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
// backing arrays using these offsets). The slice is the graph's own table,
// built with the ports and shared by every caller: callers must not
// modify it.
func (g *Graph) EdgeOffsets() []int { return g.off }

// ReversePorts returns the flat reverse-port table: for the edge behind
// port p of node v (at flat index EdgeOffsets()[v]+p, leading to w), the
// entry is the port of w that leads back to v. The table is written while
// the ports are assigned (Builder.Graph, PermutePorts), so reading it
// costs nothing; the slice is shared and callers must not modify it.
func (g *Graph) ReversePorts() []int32 { return g.rev }

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

// PermutePorts returns a copy of g in which every node's port order has been
// independently shuffled using r. Protocol correctness must be invariant
// under this transformation (anonymous networks expose no canonical ports);
// tests use it as a labeling adversary. The copy's reverse-port table is
// the parent's mapped through the shuffles, which are tracked alongside.
func (g *Graph) PermutePorts(r *rng.RNG) *Graph {
	arena := make([]int32, 2*g.m)
	rev := make([]int32, 2*g.m)     // first each new port's old port, finally the table
	newPort := make([]int32, 2*g.m) // each old port's new port
	adj := make([][]int32, len(g.adj))
	for v := range adj {
		lo, hi := g.off[v], g.off[v+1]
		nb, old := arena[lo:hi:hi], rev[lo:hi]
		copy(nb, g.adj[v])
		for p := range old {
			old[p] = int32(p)
		}
		nodeRNG := r.Split(uint64(v))
		nodeRNG.Shuffle(len(nb), func(i, j int) {
			nb[i], nb[j] = nb[j], nb[i]
			old[i], old[j] = old[j], old[i]
		})
		for p, q := range old {
			newPort[lo+int(q)] = int32(p)
		}
		adj[v] = nb
	}
	for v, nb := range adj {
		lo := g.off[v]
		for p, w := range nb {
			rev[lo+p] = newPort[g.off[w]+int(g.rev[lo+int(rev[lo+p])])]
		}
	}
	return &Graph{adj: adj, off: g.off, rev: rev, m: g.m}
}

// Validate checks structural invariants: edge offsets matching the
// degrees, no self-loops, degree/edge-count consistency (handshake lemma),
// no duplicate ports, and symmetry — every port's reverse-port entry leads
// back to it. Generators are tested through this. O(m) with one n-sized
// stamp array: the port tables are checked, not rebuilt.
func (g *Graph) Validate() error {
	n, degSum := len(g.adj), 0
	if len(g.off) != n+1 || g.off[0] != 0 {
		return fmt.Errorf("graph: %d edge offsets for %d nodes", len(g.off), n)
	}
	for u, nb := range g.adj {
		if g.off[u+1]-g.off[u] != len(nb) {
			return fmt.Errorf("graph: edge offsets give node %d %d ports, want %d", u, g.off[u+1]-g.off[u], len(nb))
		}
		for _, w := range nb {
			if int(w) == u {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: node %d links out of range to %d", u, w)
			}
		}
		degSum += len(nb)
	}
	if degSum != 2*g.m {
		return fmt.Errorf("graph: handshake violation: degree sum %d != 2m %d", degSum, 2*g.m)
	}
	if len(g.rev) != degSum {
		return fmt.Errorf("graph: reverse-port table holds %d ports, want %d", len(g.rev), degSum)
	}
	seen := make([]int, n) // seen[w] = u+1 once u's ports reached w
	for u, nb := range g.adj {
		for p, w := range nb {
			if seen[w] == u+1 {
				return fmt.Errorf("graph: duplicate edge %d-%d", u, w)
			}
			seen[w] = u + 1
			q := g.rev[g.off[u]+p]
			if q < 0 || int(q) >= len(g.adj[w]) || int(g.adj[w][q]) != u {
				return fmt.Errorf("graph: asymmetric edge %d->%d", u, w)
			}
			if int(g.rev[g.off[w]+int(q)]) != p {
				return fmt.Errorf("graph: reverse port of %d->%d does not lead back to port %d", u, w, p)
			}
		}
	}
	return nil
}

// ErrDisconnected is returned by generators that require connectivity when
// the sampled graph is not connected after the retry budget.
var ErrDisconnected = errors.New("graph: generated graph is not connected")
