package graph

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"anonlead/internal/rng"
)

// Cycle returns the cycle C_n (n >= 3). The pumping-wheel impossibility
// experiment (paper Section 5.1, Figures 1-2) runs on this family.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n>=3, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Graph()
}

// Path returns the path P_n (n >= 2).
func Path(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: path needs n>=2, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Graph()
}

// Complete returns the complete graph K_n (n >= 2).
func Complete(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: complete needs n>=2, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Graph()
}

// Star returns the star K_{1,n-1}: node 0 is the hub.
func Star(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: star needs n>=2, got %d", n))
	}
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.Graph()
}

// Grid returns the rows x cols 2D grid (no wraparound).
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic(fmt.Sprintf("graph: grid needs >=2 nodes, got %dx%d", rows, cols))
	}
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Graph()
}

// Torus returns the rows x cols 2D torus (grid with wraparound). Requires
// rows, cols >= 3 so the wrap edges do not collapse into multi-edges.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: torus needs rows,cols>=3, got %dx%d", rows, cols))
	}
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
			b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Graph()
}

// Hypercube returns the dim-dimensional hypercube Q_dim on 2^dim nodes.
func Hypercube(dim int) *Graph {
	if dim < 1 || dim > 30 {
		panic(fmt.Sprintf("graph: hypercube dim out of range: %d", dim))
	}
	n := 1 << dim
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 0; d < dim; d++ {
			w := v ^ (1 << d)
			if v < w {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Graph()
}

// BinaryTree returns the complete rooted binary tree on n nodes (heap
// layout: children of i are 2i+1, 2i+2).
func BinaryTree(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: binary tree needs n>=2, got %d", n))
	}
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, (i-1)/2)
	}
	return b.Graph()
}

// Barbell returns two cliques of size k joined by a path of length
// pathLen (pathLen >= 1 intermediate edges; pathLen = 1 joins the cliques
// directly). Total nodes: 2k + max(0, pathLen-1). A classic low-conductance,
// high-mixing-time family.
func Barbell(k, pathLen int) *Graph {
	if k < 2 || pathLen < 1 {
		panic(fmt.Sprintf("graph: barbell needs k>=2, pathLen>=1, got k=%d pathLen=%d", k, pathLen))
	}
	inner := pathLen - 1
	n := 2*k + inner
	b := NewBuilder(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(i, j)
			b.AddEdge(k+inner+i, k+inner+j)
		}
	}
	prev := k - 1 // a clique-A node
	for i := 0; i < inner; i++ {
		b.AddEdge(prev, k+i)
		prev = k + i
	}
	b.AddEdge(prev, k+inner) // attach to clique B node
	return b.Graph()
}

// Lollipop returns a clique of size k with a pendant path of tail nodes
// attached (the lollipop graph, the classical worst case for hitting time).
func Lollipop(k, tail int) *Graph {
	if k < 2 || tail < 1 {
		panic(fmt.Sprintf("graph: lollipop needs k>=2, tail>=1, got k=%d tail=%d", k, tail))
	}
	n := k + tail
	b := NewBuilder(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(i, j)
		}
	}
	prev := k - 1
	for i := 0; i < tail; i++ {
		b.AddEdge(prev, k+i)
		prev = k + i
	}
	return b.Graph()
}

// CliqueOfCliques returns the diameter-2 "clique of cliques" on n nodes:
// node 0 is a hub adjacent to every other node, and nodes 1..n-1 are
// partitioned into k cliques of near-equal size. Any two non-adjacent nodes
// meet through the hub, so the diameter is exactly 2 (for n >= 4 with
// k >= 2), while conductance and mixing vary with k — the regime studied by
// the diameter-two leader election chasm (Chatterjee et al.). Requires
// n >= 4 and 2 <= k <= n-1.
func CliqueOfCliques(n, k int) *Graph {
	if n < 4 || k < 2 || k > n-1 {
		panic(fmt.Sprintf("graph: clique-of-cliques needs n>=4, 2<=k<=n-1, got n=%d k=%d", n, k))
	}
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	base, extra := (n-1)/k, (n-1)%k
	start := 1
	for c := 0; c < k; c++ {
		size := base
		if c < extra {
			size++
		}
		for i := start; i < start+size; i++ {
			for j := i + 1; j < start+size; j++ {
				b.AddEdge(i, j)
			}
		}
		start += size
	}
	return b.Graph()
}

// maxRegularAttempts bounds full restarts in RandomRegular.
const maxRegularAttempts = 50

// RandomRegular samples a simple connected d-regular graph on n nodes via
// the configuration model with double-edge-swap repair: a random perfect
// matching of stubs is drawn, then self-loops and duplicate edges are
// removed by degree-preserving swaps against random good pairs (full
// rejection of non-simple pairings would succeed with probability only
// ~e^{-(d²-1)/4}, which is hopeless already at d=6). Requires n*d even and
// 2 <= d < n. Returns ErrDisconnected if the restart budget is exhausted,
// which for d >= 3 is vanishingly unlikely.
func RandomRegular(n, d int, r *rng.RNG) (*Graph, error) {
	if d < 2 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("graph: invalid regular params n=%d d=%d", n, d)
	}
	stubs := make([]int, n*d)
	for attempt := 0; attempt < maxRegularAttempts; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		pairs := make([][2]int, 0, len(stubs)/2)
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u > v {
				u, v = v, u
			}
			pairs = append(pairs, [2]int{u, v})
		}
		if !repairPairs(pairs, r) {
			continue
		}
		b := NewBuilder(n)
		for _, e := range pairs {
			b.AddEdge(e[0], e[1])
		}
		g := b.Graph()
		if g.N() == n && g.M() == len(pairs) && g.IsConnected() {
			return g, nil
		}
	}
	return nil, ErrDisconnected
}

// repairPairs removes self-loops and duplicate pairs from a stub matching
// by double-edge swaps with uniformly random partners, preserving degrees.
// It returns false if the repair budget is exhausted.
func repairPairs(pairs [][2]int, r *rng.RNG) bool {
	count := make(map[[2]int]int, len(pairs))
	for _, e := range pairs {
		count[e]++
	}
	bad := func(e [2]int) bool { return e[0] == e[1] || count[e] > 1 }
	budget := 200 * len(pairs)
	for iter := 0; iter < budget; iter++ {
		// Find a bad pair (scan from a random offset for fairness).
		badIdx := -1
		off := r.Intn(len(pairs))
		for i := range pairs {
			j := (i + off) % len(pairs)
			if bad(pairs[j]) {
				badIdx = j
				break
			}
		}
		if badIdx < 0 {
			return true
		}
		j := r.Intn(len(pairs))
		if j == badIdx {
			continue
		}
		a, b := pairs[badIdx][0], pairs[badIdx][1]
		c, d := pairs[j][0], pairs[j][1]
		// Random swap orientation: (a,c)(b,d) or (a,d)(b,c).
		if r.Coin() {
			c, d = d, c
		}
		e1 := norm2(a, c)
		e2 := norm2(b, d)
		if e1[0] == e1[1] || e2[0] == e2[1] {
			continue
		}
		// Remove the two old pairs, then check the new ones are fresh.
		old1, old2 := pairs[badIdx], pairs[j]
		count[old1]--
		count[old2]--
		if count[e1] > 0 || count[e2] > 0 || e1 == e2 {
			count[old1]++
			count[old2]++
			continue
		}
		count[e1]++
		count[e2]++
		pairs[badIdx] = e1
		pairs[j] = e2
	}
	return false
}

// norm2 orders an edge's endpoints.
func norm2(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// maxGNPAttempts bounds connectivity retries in GNPConnected.
const maxGNPAttempts = 200

// GNP samples an Erdős–Rényi graph G(n, p). The result may be disconnected.
func GNP(n int, p float64, r *rng.RNG) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: gnp needs n>=2, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bernoulli(p) {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Graph()
}

// GNPConnected samples G(n, p) conditioned on connectivity by rejection.
func GNPConnected(n int, p float64, r *rng.RNG) (*Graph, error) {
	for attempt := 0; attempt < maxGNPAttempts; attempt++ {
		g := GNP(n, p, r)
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, ErrDisconnected
}

// family is one row of the family table: what ByName, FamilyNames, the
// size refusals and the CLIs' -graph help know about a named family.
type family struct {
	name string
	// aliases are other spellings ByName accepts; help lists them after
	// name, FamilyNames does not list them.
	aliases []string
	// minN is the smallest n the family has a member for; ByName refuses
	// anything below it, so build never sees a size its constructor panics
	// on (n comes from a flag or a caller's argument there: an error, not
	// programmer misuse).
	minN int
	// build maps n >= minN (and the stream, for the random families) to
	// the constructor's parameters.
	build func(n int, r *rng.RNG) (*Graph, error)
}

// regular builds the d-regular random family.
func regular(d int) func(int, *rng.RNG) (*Graph, error) {
	return func(n int, r *rng.RNG) (*Graph, error) { return RandomRegular(n, d, r) }
}

// families is the family table, in FamilyNames order. A family is declared
// here and nowhere else.
var families = []family{
	{name: "cycle", minN: 3, build: func(n int, _ *rng.RNG) (*Graph, error) { return Cycle(n), nil }},
	{name: "path", minN: 2, build: func(n int, _ *rng.RNG) (*Graph, error) { return Path(n), nil }},
	{name: "complete", minN: 2, build: func(n int, _ *rng.RNG) (*Graph, error) { return Complete(n), nil }},
	{name: "star", minN: 2, build: func(n int, _ *rng.RNG) (*Graph, error) { return Star(n), nil }},
	{name: "grid", minN: 2, build: func(n int, _ *rng.RNG) (*Graph, error) {
		rows, cols := squareDims(n)
		return Grid(rows, cols), nil
	}},
	{name: "torus", minN: 9, build: func(n int, _ *rng.RNG) (*Graph, error) {
		rows, cols := squareDims(n)
		if rows < 3 {
			return nil, fmt.Errorf("graph: torus needs n = rows x cols with both >= 3, got %d = %d x %d", n, rows, cols)
		}
		return Torus(rows, cols), nil
	}},
	// n rounded down to a power of two, at most 2^30 (Hypercube's limit).
	{name: "hypercube", minN: 2, build: func(n int, _ *rng.RNG) (*Graph, error) {
		if n >= 1<<31 {
			return nil, fmt.Errorf("graph: hypercube needs n < 2^31 (dimension at most 30), got %d", n)
		}
		dim := 0
		for (1 << (dim + 1)) <= n {
			dim++
		}
		return Hypercube(dim), nil
	}},
	{name: "tree", minN: 2, build: func(n int, _ *rng.RNG) (*Graph, error) { return BinaryTree(n), nil }},
	{name: "barbell", minN: 6, build: func(n int, _ *rng.RNG) (*Graph, error) {
		k := n / 3
		return Barbell(k, n-2*k+1), nil
	}},
	{name: "lollipop", minN: 4, build: func(n int, _ *rng.RNG) (*Graph, error) {
		k := n / 2
		return Lollipop(k, n-k), nil
	}},
	{name: "regular", aliases: []string{"regular4"}, minN: 5, build: regular(4)},
	// Degree 3 where n is even, else 4 (a 3-regular graph needs 3n even).
	{name: "regular3", minN: 4, build: func(n int, r *rng.RNG) (*Graph, error) {
		d := 3
		if (n*d)%2 != 0 {
			d = 4
		}
		return RandomRegular(n, d, r)
	}},
	{name: "regular6", minN: 7, build: regular(6)},
	{name: "expander", minN: 7, build: regular(6)},
	// p = 2 ln n / n, conditioned on connectivity.
	{name: "gnp", minN: 2, build: func(n int, r *rng.RNG) (*Graph, error) {
		return GNPConnected(n, 2.0*math.Log(float64(n))/float64(n), r)
	}},
	// Clique-of-cliques with a hub, k ≈ √(n-1) cliques.
	{name: "diam2", aliases: []string{"cliquehub"}, minN: 4, build: func(n int, _ *rng.RNG) (*Graph, error) {
		k := int(math.Sqrt(float64(n - 1)))
		if k < 2 {
			k = 2
		}
		return CliqueOfCliques(n, k), nil
	}},
}

// ByName constructs a family member by name (or alias) for the CLI tools
// and the experiment harness; FamilyHelp lists what it accepts.
func ByName(name string, n int, r *rng.RNG) (*Graph, error) {
	for _, f := range families {
		if name != f.name && !slices.Contains(f.aliases, name) {
			continue
		}
		if n < f.minN {
			return nil, fmt.Errorf("graph: %s needs n>=%d, got %d", name, f.minN, n)
		}
		return f.build(n, r)
	}
	return nil, fmt.Errorf("graph: unknown family %q", name)
}

// Seeded is the one derivation of a named family member from a run seed:
// ByName on the stream "graph:<family>" split off the seed. The public
// NewNetwork, the harness workloads and every ledist process build their
// topology here, so (family, n, seed) names the same graph on all of them.
func Seeded(family string, n int, seed uint64) (*Graph, error) {
	return ByName(family, n, rng.New(seed).SplitString("graph:"+family))
}

// FamilyNames lists the canonical family names, in table order.
func FamilyNames() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

// FamilyHelp is the -graph flag's list of accepted names: every family,
// each followed by its aliases.
func FamilyHelp() string {
	var b strings.Builder
	for i, f := range families {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.name)
		if len(f.aliases) > 0 {
			b.WriteString(" (or " + strings.Join(f.aliases, ", ") + ")")
		}
	}
	return b.String()
}

// squareDims returns the most-square rows x cols factorization of n, i.e.
// the largest divisor r <= sqrt(n) paired with n/r, so Grid/Torus builders
// get exactly n nodes. Prime n degenerates to 1 x n (a path/cycle).
func squareDims(n int) (rows, cols int) {
	best := 1
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			best = r
		}
	}
	return best, n / best
}
