package spectral

import (
	"math"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// mulReference is the plain i-k-j product: terms in ascending k, nothing
// skipped, one rounding per multiply and per add.
func mulReference(a, b *dense) *dense {
	n := a.n
	out := newDense(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				out.data[i*n+j] += a.data[i*n+k] * b.data[k*n+j]
			}
		}
	}
	return out
}

// applyLazySymReference is the per-edge formula applyLazySym replaced: a
// square root and a division per edge per call.
func applyLazySymReference(g *graph.Graph, x, y []float64) {
	n := g.N()
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		if deg == 0 {
			y[v] = x[v]
			continue
		}
		acc := 0.0
		for p := 0; p < deg; p++ {
			w := g.Neighbor(v, p)
			acc += x[w] / math.Sqrt(float64(g.Degree(w)))
		}
		y[v] = 0.5*x[v] + acc/(2*math.Sqrt(float64(deg)))
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// mustFamily builds a family member on the graph seed chain NewNetwork
// uses.
func mustFamily(t testing.TB, family string, n int, seed uint64) *graph.Graph {
	g, err := graph.ByName(family, n, rng.New(seed).SplitString("graph:"+family))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDenseMulBitIdentical: the register-blocked product equals the plain
// triple loop bit for bit on the matrices the mixing-time search feeds it
// — the first six powers of the lazy walk, sparse and dense left operands,
// every n mod 4 (the block edge) — into a fresh and into a dirty
// destination, and on dense non-negative operands as large as the exact
// regime takes. Every case runs through the Go loop and, where the CPU has
// AVX, through the vector kernel.
func TestDenseMulBitIdentical(t *testing.T) {
	hasAVX := useAVX
	defer func() { useAVX = hasAVX }()
	for _, vector := range []bool{false, true} {
		if vector && !hasAVX {
			t.Log("no AVX on this CPU: the vector kernel is not tested")
			continue
		}
		useAVX = vector
		for _, n := range []int{1, 2, 3, 5, 7, 33, 65, 129} {
			graphs := map[string]*graph.Graph{}
			for _, family := range []string{"cycle", "complete", "star", "expander", "diam2"} {
				if g, err := graph.ByName(family, n, rng.New(3).SplitString("graph:"+family)); err == nil {
					graphs[family] = g
				}
			}
			if n == 1 {
				graphs["single"] = graph.NewBuilder(1).Graph()
			}
			for name, g := range graphs {
				p := lazyWalkMatrix(g)
				pow := p
				dirty := newDense(p.n)
				for e := 2; e <= 6; e++ {
					want := mulReference(pow, p)
					got := product(pow, p)
					if i := sameBits(got.data, want.data); i >= 0 {
						t.Fatalf("vector=%v %s n=%d: P^%d entry %d: mulInto %x, reference %x", vector, name, n, e, i,
							math.Float64bits(got.data[i]), math.Float64bits(want.data[i]))
					}
					for i := range dirty.data {
						dirty.data[i] = -1
					}
					mulInto(dirty, p, pow) // sparse left operand
					if i := sameBits(dirty.data, mulReference(p, pow).data); i >= 0 {
						t.Fatalf("vector=%v %s n=%d: P·P^%d entry %d differs from reference", vector, name, n, e-1, i)
					}
					pow = got
				}
			}
		}
		for _, n := range []int{255, 256} {
			r := rng.New(uint64(n))
			a, b, dirty := newDense(n), newDense(n), newDense(n)
			for i := range a.data {
				a.data[i], b.data[i], dirty.data[i] = r.Float64(), r.Float64(), -1
			}
			mulInto(dirty, a, b)
			want := mulReference(a, b)
			if i := sameBits(dirty.data, want.data); i >= 0 {
				t.Fatalf("vector=%v dense n=%d: entry %d: mulInto %x, reference %x", vector, n, i,
					math.Float64bits(dirty.data[i]), math.Float64bits(want.data[i]))
			}
		}
	}
}

// TestApplyLazySymBitIdentical: 50 power-iteration steps on irregular
// graphs (where √deg differs per node) through the per-node-division
// kernel and through the per-edge formula it replaced.
func TestApplyLazySymBitIdentical(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Star(17), graph.Lollipop(8, 9), mustFamily(t, "gnp", 40, 3)} {
		n := g.N()
		sq, z := make([]float64, n), make([]float64, n)
		x, y, xr, yr := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for v := range x {
			sq[v] = math.Sqrt(float64(g.Degree(v)))
			x[v] = math.Sin(float64(v+1)) + 1e-3*float64(v%7)
			xr[v] = x[v]
		}
		for iter := 0; iter < 50; iter++ {
			applyLazySym(g, sq, z, x, y)
			applyLazySymReference(g, xr, yr)
			if i := sameBits(y, yr); i >= 0 {
				t.Fatalf("n=%d iteration %d node %d: %x, reference %x", n, iter, i,
					math.Float64bits(y[i]), math.Float64bits(yr[i]))
			}
			x, y, xr, yr = y, x, yr, xr
		}
	}
}

// TestProfileAllocBound pins the allocation count of both regimes on the
// benchmark's kind of set-up graph. Counts are exact (35 or 36, and 28,
// measured), so the bound is the measured figure: a constant in either
// regime, the all-pairs diameter's n searches sharing one distance slice
// and one queue.
func TestProfileAllocBound(t *testing.T) {
	for _, c := range []struct {
		family string
		n      int
		bound  float64
	}{
		{"expander", 256, 36},
		{"expander", 2000, 28},
	} {
		g := mustFamily(t, c.family, c.n, 1)
		got := testing.AllocsPerRun(1, func() {
			if _, err := ProfileGraph(g, 1); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.bound {
			t.Errorf("%s/%d profile: %.0f allocations, bound %.0f", c.family, c.n, got, c.bound)
		}
	}
}
