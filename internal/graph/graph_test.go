package graph

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"anonlead/internal/rng"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 1) // duplicate ignored
	b.AddEdge(2, 2) // self-loop ignored
	g := b.Graph()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestPortSemantics(t *testing.T) {
	g := Cycle(5)
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("cycle degree at %d: %d", v, g.Degree(v))
		}
		for p := 0; p < g.Degree(v); p++ {
			w := g.Neighbor(v, p)
			back := g.PortTo(w, v)
			if back < 0 || g.Neighbor(w, back) != v {
				t.Fatalf("port round-trip failed at %d->%d", v, w)
			}
		}
	}
	if g.PortTo(0, 2) != -1 {
		t.Fatal("PortTo for non-adjacent nodes should be -1")
	}
}

// TestGraphOwnsItsAdjacency: Builder.Graph() used to hand the builder's
// own rows to the graph, so a later AddEdge appended into (or reallocated
// a row out from under) the "immutable" Graph.
func TestGraphOwnsItsAdjacency(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Graph()
	before := g.Edges()
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	if !reflect.DeepEqual(g.Edges(), before) || g.M() != 3 || g.Degree(3) != 1 {
		t.Fatalf("graph changed with its builder: edges %v, was %v", g.Edges(), before)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Graph().M() != 5 {
		t.Fatal("builder lost the edges added after Graph()")
	}
}

// TestAdjWindowsAreClipped: the adjacency windows share one arena, so an
// append through Adj must reallocate, not write into the next node's ports.
func TestAdjWindowsAreClipped(t *testing.T) {
	g, err := RandomRegular(30, 4, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Graph{g, g.PermutePorts(rng.New(5)), Star(6)} {
		for v := 0; v < h.N(); v++ {
			nb := h.Adj(v)
			if len(nb) != h.Degree(v) || cap(nb) != len(nb) {
				t.Fatalf("node %d: Adj len=%d cap=%d, degree %d", v, len(nb), cap(nb), h.Degree(v))
			}
			for p, w := range nb {
				if int(w) != h.Neighbor(v, p) {
					t.Fatalf("node %d port %d: Adj %d, Neighbor %d", v, p, w, h.Neighbor(v, p))
				}
			}
		}
		_ = append(h.Adj(0), -1)
		if err := h.Validate(); err != nil {
			t.Fatalf("append through Adj reached the graph: %v", err)
		}
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := Complete(5)
	edges := g.Edges()
	if len(edges) != 10 {
		t.Fatalf("K5 edges: %d", len(edges))
	}
	for i, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not ordered", e)
		}
		if i > 0 {
			prev := edges[i-1]
			if prev[0] > e[0] || (prev[0] == e[0] && prev[1] >= e[1]) {
				t.Fatalf("edges not sorted at %d", i)
			}
		}
	}
}

func TestFamilySizes(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"cycle", Cycle(7), 7, 7},
		{"path", Path(7), 7, 6},
		{"complete", Complete(6), 6, 15},
		{"star", Star(9), 9, 8},
		{"grid", Grid(3, 4), 12, 17},
		{"torus", Torus(3, 4), 12, 24},
		{"hypercube", Hypercube(4), 16, 32},
		{"tree", BinaryTree(10), 10, 9},
		{"barbell", Barbell(4, 3), 10, 15},
		{"lollipop", Lollipop(4, 3), 7, 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.g.N() != c.n || c.g.M() != c.m {
				t.Fatalf("got n=%d m=%d want n=%d m=%d", c.g.N(), c.g.M(), c.n, c.m)
			}
			if err := c.g.Validate(); err != nil {
				t.Fatal(err)
			}
			if !c.g.IsConnected() {
				t.Fatal("family instance disconnected")
			}
		})
	}
}

func TestFamilyDegrees(t *testing.T) {
	if g := Torus(4, 5); g.MinDegree() != 4 || g.MaxDegree() != 4 {
		t.Fatal("torus should be 4-regular")
	}
	if g := Hypercube(5); g.MinDegree() != 5 || g.MaxDegree() != 5 {
		t.Fatal("hypercube Q5 should be 5-regular")
	}
	if g := Cycle(9); g.MinDegree() != 2 || g.MaxDegree() != 2 {
		t.Fatal("cycle should be 2-regular")
	}
	if g := Star(6); g.MaxDegree() != 5 || g.MinDegree() != 1 {
		t.Fatal("star degrees wrong")
	}
}

func TestFamilyPanics(t *testing.T) {
	cases := []func(){
		func() { Cycle(2) },
		func() { Path(1) },
		func() { Complete(1) },
		func() { Star(1) },
		func() { Torus(2, 5) },
		func() { Hypercube(0) },
		func() { BinaryTree(1) },
		func() { Barbell(1, 1) },
		func() { Lollipop(1, 1) },
		func() { Grid(0, 5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestRandomRegular(t *testing.T) {
	r := rng.New(1)
	for _, d := range []int{2, 3, 4, 6, 8} {
		n := 50
		if (n*d)%2 != 0 {
			n++
		}
		g, err := RandomRegular(n, d, r)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if g.MinDegree() != d || g.MaxDegree() != d {
			t.Fatalf("d=%d: degrees [%d,%d]", d, g.MinDegree(), g.MaxDegree())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !g.IsConnected() {
			t.Fatalf("d=%d: disconnected", d)
		}
	}
}

func TestRandomRegularRejectsBadParams(t *testing.T) {
	r := rng.New(1)
	if _, err := RandomRegular(5, 3, r); err == nil {
		t.Fatal("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 1, r); err == nil {
		t.Fatal("d=1 accepted")
	}
	if _, err := RandomRegular(4, 4, r); err == nil {
		t.Fatal("d=n accepted")
	}
}

func TestGNPConnected(t *testing.T) {
	r := rng.New(2)
	g, err := GNPConnected(40, 0.2, r)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("GNPConnected returned disconnected graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestByNameAllFamilies(t *testing.T) {
	for _, f := range families {
		name := f.name
		t.Run(name, func(t *testing.T) {
			r := rng.New(3)
			g, err := ByName(name, 16, r)
			if err != nil {
				t.Fatalf("ByName(%q, 16): %v", name, err)
			}
			if g.N() == 0 {
				t.Fatal("empty graph")
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if !g.IsConnected() {
				t.Fatal("disconnected")
			}
		})
	}
	if _, err := ByName("nosuch", 8, rng.New(1)); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestByNameHypercubeTooLarge: a hypercube size whose dimension passes
// Hypercube's limit of 30 is an error naming the family, not a panic.
func TestByNameHypercubeTooLarge(t *testing.T) {
	for _, n := range []int{1 << 31, 1<<31 + 5, 1 << 62, math.MaxInt} {
		if _, err := ByName("hypercube", n, nil); err == nil || !strings.Contains(err.Error(), "hypercube") {
			t.Errorf("ByName(hypercube, %d): err %v, want one naming the family", n, err)
		}
	}
}

// TestByNameSmallSizes: n reaches ByName from flags and public arguments,
// so a size below a family's minimum is an error naming the family, never
// the constructor's panic — for every name the family table accepts,
// aliases included, each of which the -graph help must list.
func TestByNameSmallSizes(t *testing.T) {
	help := " " + strings.NewReplacer(",", " ", "(", " ", ")", " ").Replace(FamilyHelp()) + " "
	for _, f := range families {
		for _, name := range append([]string{f.name}, f.aliases...) {
			if !strings.Contains(help, " "+name+" ") {
				t.Errorf("ByName accepts %q but the -graph help does not list it: %s", name, FamilyHelp())
			}
			for n := -1; n <= f.minN; n++ {
				g, err := ByName(name, n, rng.New(3))
				if (err != nil) != (n < f.minN) {
					t.Errorf("ByName(%q, %d) with minN %d: err %v", name, n, f.minN, err)
				}
				if err != nil {
					if want := fmt.Sprintf("graph: %s needs n>=%d, got %d", name, f.minN, n); err.Error() != want {
						t.Errorf("ByName(%q, %d): error %q, want %q", name, n, err, want)
					}
					continue
				}
				if err := g.Validate(); err != nil || !g.IsConnected() {
					t.Errorf("ByName(%q, %d) returned an unusable graph (validate: %v)", name, n, err)
				}
			}
		}
	}
	if _, err := ByName("cycle", 2, nil); err == nil || err.Error() != "graph: cycle needs n>=3, got 2" {
		t.Fatalf("ByName(cycle, 2): %v", err)
	}
}

func TestPermutePortsPreservesStructure(t *testing.T) {
	r := rng.New(4)
	g, err := RandomRegular(30, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	p := g.PermutePorts(r.Split(99))
	if p.N() != g.N() || p.M() != g.M() {
		t.Fatal("permutation changed size")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same edge sets.
	e1, e2 := g.Edges(), p.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge sets differ at %d: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestHandshakeProperty(t *testing.T) {
	r := rng.New(5)
	if err := quick.Check(func(seed uint64) bool {
		g := GNP(20, 0.3, r.Split(seed))
		degSum := 0
		for v := 0; v < g.N(); v++ {
			degSum += g.Degree(v)
		}
		return degSum == 2*g.M() && g.Validate() == nil
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSAndDiameter(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		diam int
	}{
		{"path10", Path(10), 9},
		{"cycle10", Cycle(10), 5},
		{"cycle11", Cycle(11), 5},
		{"complete7", Complete(7), 1},
		{"star8", Star(8), 2},
		{"hypercube4", Hypercube(4), 4},
		{"grid3x4", Grid(3, 4), 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if d := c.g.Diameter(); d != c.diam {
				t.Fatalf("diameter %d want %d", d, c.diam)
			}
			lb := c.g.DiameterLowerBound()
			if lb > c.diam || lb < 1 {
				t.Fatalf("lower bound %d vs diameter %d", lb, c.diam)
			}
		})
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(6)
	d := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4, 5} {
		if d[i] != want {
			t.Fatalf("BFS dist[%d]=%d want %d", i, d[i], want)
		}
	}
}

func TestDisconnectedDetection(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Graph()
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if cc := g.ComponentCount(); cc != 2 {
		t.Fatalf("components: %d", cc)
	}
	if g.Diameter() != -1 || g.Eccentricity(0) != -1 || g.DiameterLowerBound() != -1 {
		t.Fatal("distance queries on disconnected graph should return -1")
	}
}

func TestEccentricity(t *testing.T) {
	g := Path(5)
	if e := g.Eccentricity(2); e != 2 {
		t.Fatalf("center eccentricity %d want 2", e)
	}
	if e := g.Eccentricity(0); e != 4 {
		t.Fatalf("end eccentricity %d want 4", e)
	}
}

func TestSquareDims(t *testing.T) {
	cases := map[int][2]int{12: {3, 4}, 16: {4, 4}, 9: {3, 3}, 7: {1, 7}, 18: {3, 6}}
	for n, want := range cases {
		r, c := squareDims(n)
		if r != want[0] || c != want[1] {
			t.Fatalf("squareDims(%d) = %d,%d want %v", n, r, c, want)
		}
		if r*c != n {
			t.Fatalf("squareDims(%d) does not cover n", n)
		}
	}
}

func TestRepairPairsProperty(t *testing.T) {
	r := rng.New(6)
	if err := quick.Check(func(seed uint64) bool {
		rr := r.Split(seed)
		n, d := 24, 4
		stubs := make([]int, n*d)
		for i := range stubs {
			stubs[i] = i / d
		}
		rr.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		pairs := make([][2]int, 0, len(stubs)/2)
		for i := 0; i < len(stubs); i += 2 {
			pairs = append(pairs, norm2(stubs[i], stubs[i+1]))
		}
		if !repairPairs(pairs, rr) {
			return false
		}
		// After repair: simple and degree-preserving.
		deg := make([]int, n)
		seen := map[[2]int]bool{}
		for _, e := range pairs {
			if e[0] == e[1] || seen[e] {
				return false
			}
			seen[e] = true
			deg[e[0]]++
			deg[e[1]]++
		}
		for _, dv := range deg {
			if dv != d {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueOfCliques(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{4, 2}, {17, 4}, {33, 5}, {64, 7}, {100, 9},
	} {
		g := CliqueOfCliques(tc.n, tc.k)
		if g.N() != tc.n {
			t.Fatalf("n=%d k=%d: got %d nodes", tc.n, tc.k, g.N())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if d := g.Diameter(); d != 2 {
			t.Fatalf("n=%d k=%d: diameter %d, want 2", tc.n, tc.k, d)
		}
		// The hub reaches everyone directly.
		if g.Degree(0) != tc.n-1 {
			t.Fatalf("n=%d k=%d: hub degree %d", tc.n, tc.k, g.Degree(0))
		}
	}
	for _, bad := range []struct{ n, k int }{{3, 2}, {5, 1}, {5, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CliqueOfCliques(%d,%d) did not panic", bad.n, bad.k)
				}
			}()
			CliqueOfCliques(bad.n, bad.k)
		}()
	}
}

// TestEdgeOffsetsAndReversePorts: the port tables written with the ports
// agree with PortTo on every family, as built and through one and two
// chained PermutePorts, and reading them allocates nothing.
func TestEdgeOffsetsAndReversePorts(t *testing.T) {
	for _, f := range families {
		name := f.name
		g, err := ByName(name, 64, rng.New(3).SplitString("graph:"+name))
		if err != nil {
			t.Fatal(err)
		}
		once := g.PermutePorts(rng.New(7))
		for label, h := range map[string]*Graph{"built": g, "permuted": once, "permuted twice": once.PermutePorts(rng.New(8))} {
			if err := h.Validate(); err != nil {
				t.Fatalf("%s %s: %v", name, label, err)
			}
			off, rev := h.EdgeOffsets(), h.ReversePorts()
			if len(off) != h.N()+1 || off[h.N()] != 2*h.M() || len(rev) != 2*h.M() {
				t.Fatalf("%s %s: tables hold %d offsets ending at %d and %d ports, want %d, %d, %d",
					name, label, len(off), off[len(off)-1], len(rev), h.N()+1, 2*h.M(), 2*h.M())
			}
			for v := 0; v < h.N(); v++ {
				if off[v+1]-off[v] != h.Degree(v) {
					t.Fatalf("%s %s node %d: offset span %d != degree %d", name, label, v, off[v+1]-off[v], h.Degree(v))
				}
				for p := 0; p < h.Degree(v); p++ {
					if q, want := rev[off[v]+p], h.PortTo(h.Neighbor(v, p), v); int(q) != want {
						t.Fatalf("%s %s edge (%d,%d): reverse port %d != PortTo %d", name, label, v, p, q, want)
					}
				}
			}
			if a := testing.AllocsPerRun(10, func() { h.ReversePorts() }); a != 0 {
				t.Fatalf("%s %s: ReversePorts allocated %v times", name, label, a)
			}
			if a := testing.AllocsPerRun(10, func() { h.EdgeOffsets() }); a != 0 {
				t.Fatalf("%s %s: EdgeOffsets allocated %v times", name, label, a)
			}
		}
	}
}

// TestValidateRejects: each failure branch of Validate on a hand-built
// graph whose port tables are otherwise well formed, next to the same
// path graph built correctly.
func TestValidateRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"path", &Graph{adj: [][]int32{{1}, {0, 2}, {1}}, off: []int{0, 1, 3, 4}, rev: []int32{0, 0, 0, 1}, m: 2}, ""},
		{"self-loop", &Graph{adj: [][]int32{{1, 0}, {0}}, off: []int{0, 2, 3}, rev: []int32{0, 0, 0}, m: 1}, "graph: self-loop at node 0"},
		{"duplicate port", &Graph{adj: [][]int32{{1, 1}, {0, 0}}, off: []int{0, 2, 4}, rev: []int32{0, 1, 0, 1}, m: 2}, "graph: duplicate edge 0-1"},
		{"asymmetric edge", &Graph{adj: [][]int32{{1}, {0, 2}, {0}}, off: []int{0, 1, 3, 4}, rev: []int32{0, 0, 0, 0}, m: 2}, "graph: asymmetric edge 1->2"},
		{"reverse port", &Graph{adj: [][]int32{{1}, {0, 2}, {1}}, off: []int{0, 1, 3, 4}, rev: []int32{0, 0, 0, 0}, m: 2}, "graph: reverse port of 1->2 does not lead back to port 1"},
		{"offsets", &Graph{adj: [][]int32{{1}, {0, 2}, {1}}, off: []int{0, 2, 3, 4}, rev: []int32{0, 0, 0, 1}, m: 2}, "graph: edge offsets give node 0 2 ports, want 1"},
	} {
		err := c.g.Validate()
		if (err == nil) != (c.want == "") || (err != nil && err.Error() != c.want) {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
}
