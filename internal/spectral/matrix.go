// Package spectral computes the graph quantities the paper's protocols and
// analysis are parameterized by: the lazy random-walk transition matrix,
// its second eigenvalue, the mixing time tmix (exact by matrix powering at
// small sizes, spectral estimate otherwise), the graph conductance Φ, and
// the isoperimetric number i(G) (exact by cut enumeration at small sizes,
// sweep-cut upper bounds plus Cheeger-style lower bounds otherwise).
//
// Definitions follow Section 2 of the paper:
//
//	tmix(G) = min t such that for every start distribution π0,
//	          ||π0·Pᵗ − π*||∞ ≤ 1/(2n),
//	Φ(G)    = min_S |∂S| / min(Vol(S), Vol(S̄)),
//	i(G)    = min_{|S| ≤ n/2} |∂S| / |S|,
//
// where P is the lazy walk (stay with probability 1/2, otherwise uniform
// neighbor), matching the walk used by Algorithm 5.
//
// See docs/ARCHITECTURE.md for where this sits in the paper-to-code map.
package spectral

import (
	"fmt"

	"anonlead/internal/graph"
)

// Dense is a dense square matrix in row-major order. It is the workhorse
// for exact mixing-time computation at small n; protocol code never
// allocates one.
type Dense struct {
	n    int
	data []float64
}

// NewDense returns the zero n x n matrix.
func NewDense(n int) *Dense {
	return &Dense{n: n, data: make([]float64, n*n)}
}

// N returns the dimension.
func (m *Dense) N() int { return m.n }

// At returns entry (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.n+j] }

// Set assigns entry (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.n+j] = v }

// Row returns a live view of row i (internal use: callers do not mutate).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.n : (i+1)*m.n] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.n)
	copy(out.data, m.data)
	return out
}

// Mul returns m · other. It panics on dimension mismatch (programming
// error).
func (m *Dense) Mul(other *Dense) *Dense {
	out := NewDense(m.n)
	mulInto(out, m, other)
	return out
}

// mulInto sets dst = a·b; dst must not alias a or b. Four rows of b per
// pass with dst[i][j] held in a register across them, rows re-sliced to
// one length so the inner loop carries no bounds checks.
//
// The product is bit-identical to the plain i-k-j loop: every dst[i][j]
// still receives its terms in ascending k, each multiply and add is
// rounded separately exactly as there (go.mod's amd64 baseline does not
// fuse multiply-add; arm64 fuses this form and the plain form alike), and
// a block is skipped only when all four coefficients are zero — a zero
// coefficient skipped or not adds +0 to a sum of non-negative terms,
// which leaves it unchanged. Holds for finite non-negative operands,
// which is all the mixing-time search feeds it.
func mulInto(dst, a, b *Dense) {
	if a.n != b.n || dst.n != a.n {
		panic(fmt.Sprintf("spectral: dimension mismatch %d vs %d into %d", a.n, b.n, dst.n))
	}
	n := a.n
	for i := 0; i < n; i++ {
		ai := a.Row(i)
		oi := dst.Row(i)
		clear(oi)
		k := 0
		for ; k+4 <= n; k += 4 {
			a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0, b1 := b.Row(k)[:len(oi)], b.Row(k + 1)[:len(oi)]
			b2, b3 := b.Row(k + 2)[:len(oi)], b.Row(k + 3)[:len(oi)]
			for j := range oi {
				t := oi[j]
				t += a0 * b0[j]
				t += a1 * b1[j]
				t += a2 * b2[j]
				t += a3 * b3[j]
				oi[j] = t
			}
		}
		for ; k < n; k++ {
			ak := ai[k]
			if ak == 0 {
				continue
			}
			bk := b.Row(k)[:len(oi)]
			for j := range oi {
				oi[j] += ak * bk[j]
			}
		}
	}
}

// MulVecLeft returns the row vector x · m (distribution evolution).
func (m *Dense) MulVecLeft(x []float64) []float64 {
	if len(x) != m.n {
		panic(fmt.Sprintf("spectral: vector length %d vs matrix %d", len(x), m.n))
	}
	out := make([]float64, m.n)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// LazyWalkMatrix returns the transition matrix of the paper's lazy random
// walk on g: stay put with probability 1/2, otherwise move to a uniformly
// random neighbor.
func LazyWalkMatrix(g *graph.Graph) *Dense {
	n := g.N()
	m := NewDense(n)
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		m.Set(v, v, 0.5)
		if deg == 0 {
			m.Set(v, v, 1)
			continue
		}
		share := 0.5 / float64(deg)
		for p := 0; p < deg; p++ {
			w := g.Neighbor(v, p)
			m.Set(v, w, m.At(v, w)+share)
		}
	}
	return m
}

// RowStochasticError returns the maximum over rows of |rowSum - 1|, used by
// tests to validate transition matrices.
func (m *Dense) RowStochasticError() float64 {
	worst := 0.0
	for i := 0; i < m.n; i++ {
		sum := 0.0
		for _, v := range m.Row(i) {
			sum += v
		}
		if d := abs(sum - 1); d > worst {
			worst = d
		}
	}
	return worst
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
