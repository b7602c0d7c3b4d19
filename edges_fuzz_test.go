package anonlead

import (
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// FuzzNewNetworkFromEdges holds NewNetworkFromEdges to its contract over
// arbitrary sizes and edge lists: it returns an error or a network, never
// both and never a panic, and a network's graph validates with a
// reverse-port table that agrees with PortTo on every directed edge — as
// built and after a port permutation. n is folded into [-127, 127] (its
// sign kept) so a huge size cannot exhaust memory; each pair of bytes is
// one edge whose endpoints are signed, so out-of-range and negative ones
// occur.
func FuzzNewNetworkFromEdges(f *testing.F) {
	f.Add(4, []byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Add(3, []byte{0, 1, 1, 0, 1, 2})
	f.Add(3, []byte{0, 1, 1, 5})
	f.Add(3, []byte{0xff, 2})
	f.Add(3, []byte{0, 1, 1, 2, 2, 2})
	f.Add(0, []byte{})
	f.Add(1, []byte{})
	f.Add(4, []byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, n int, data []byte) {
		n %= 128
		edges := make([][2]int, len(data)/2)
		for i := range edges {
			edges[i] = [2]int{int(int8(data[2*i])), int(int8(data[2*i+1]))}
		}
		nw, err := NewNetworkFromEdges(n, edges)
		if (nw == nil) == (err == nil) {
			t.Fatalf("NewNetworkFromEdges(%d, %v) = %v, %v: want exactly one of a network and an error", n, edges, nw, err)
		}
		if err != nil {
			return
		}
		for _, g := range []*graph.Graph{nw.g, nw.g.PermutePorts(rng.New(uint64(len(data))))} {
			if err := g.Validate(); err != nil {
				t.Fatalf("NewNetworkFromEdges(%d, %v): %v", n, edges, err)
			}
			off, rev := g.EdgeOffsets(), g.ReversePorts()
			for v := 0; v < g.N(); v++ {
				for p := 0; p < g.Degree(v); p++ {
					if want := g.PortTo(g.Neighbor(v, p), v); int(rev[off[v]+p]) != want {
						t.Fatalf("NewNetworkFromEdges(%d, %v): node %d port %d reverse %d, PortTo %d", n, edges, v, p, rev[off[v]+p], want)
					}
				}
			}
		}
	})
}
