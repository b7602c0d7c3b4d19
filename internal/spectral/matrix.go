// Package spectral computes the graph quantities the paper's protocols and
// analysis are parameterized by, as one Profile: the second eigenvalue of
// the lazy random walk, the mixing time tmix (exact by matrix powering at
// small sizes, sampled walks otherwise), the graph conductance Φ and the
// isoperimetric number i(G) (exact by cut enumeration at small sizes,
// sweep-cut upper bounds otherwise). ProfileGraph is the only way in:
// every quantity of a profile comes from one eigenpair and one size
// dispatch.
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

// dense is a dense square matrix in row-major order, the workhorse of the
// exact mixing-time search at small n.
type dense struct {
	n    int
	data []float64
}

// newDense returns the zero n x n matrix.
func newDense(n int) *dense {
	return &dense{n: n, data: make([]float64, n*n)}
}

// row returns a live view of row i.
func (m *dense) row(i int) []float64 { return m.data[i*m.n : (i+1)*m.n] }

// mulInto sets dst = a·b; dst must not alias a or b. Four rows of b per
// pass with dst[i][j] held in a register across them, rows re-sliced to
// one length so the inner loop carries no bounds checks.
//
// Where the CPU has AVX (useAVX, amd64 only), mulAddPairAVX first takes
// the first n&^3 columns of each pair of rows through every four-row
// block of b, four columns per instruction. The Go loop then adds the
// rest: the columns past n&^3 and the odd last row over those blocks,
// and the n mod 4 rows of b past the last block in every column, after
// the kernel's terms. Without AVX the Go loop does it all.
//
// The product is bit-identical to the plain i-k-j loop on either path:
// every dst[i][j] still receives its terms in ascending k, each multiply
// and add is rounded separately exactly as there (go.mod's amd64 baseline
// does not fuse multiply-add, and the kernel uses VMULPD then VADDPD,
// never VFMADD; arm64 fuses this form and the plain form alike). The
// kernel's lanes are independent columns, and per lane VMULPD and VADDPD
// are the IEEE-754 operations of the scalar MULSD and ADDSD, under Go's
// round-to-nearest without flush-to-zero. A block is skipped only when
// all its coefficients are zero (four for a Go row, eight for a kernel
// pair) — a zero coefficient skipped or not adds +0 to a sum of
// non-negative terms, which leaves it unchanged. Holds for finite
// non-negative operands, which is all the mixing-time search feeds it.
func mulInto(dst, a, b *dense) {
	if a.n != b.n || dst.n != a.n {
		panic(fmt.Sprintf("spectral: dimension mismatch %d vs %d into %d", a.n, b.n, dst.n))
	}
	n := a.n
	clear(dst.data)
	// Rows below paired have their first vec columns' block terms already.
	vec, paired := n&^3, 0
	if useAVX && vec > 0 {
		paired = n &^ 1
		for i := 0; i < paired; i += 2 {
			ai, ai1 := a.row(i), a.row(i+1)
			for k := 0; k < vec; k += 4 {
				if ai[k] == 0 && ai[k+1] == 0 && ai[k+2] == 0 && ai[k+3] == 0 &&
					ai1[k] == 0 && ai1[k+1] == 0 && ai1[k+2] == 0 && ai1[k+3] == 0 {
					continue
				}
				mulAddPairAVX(&dst.data[i*n], &ai[k], &b.data[k*n], n)
			}
		}
	}
	for i := 0; i < n; i++ {
		ai := a.row(i)
		oi := dst.row(i)
		j0 := 0
		if i < paired {
			j0 = vec
		}
		ot := oi[j0:]
		for k := 0; k < vec; k += 4 {
			a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0, b1 := b.row(k)[j0:][:len(ot)], b.row(k + 1)[j0:][:len(ot)]
			b2, b3 := b.row(k + 2)[j0:][:len(ot)], b.row(k + 3)[j0:][:len(ot)]
			for j := range ot {
				t := ot[j]
				t += a0 * b0[j]
				t += a1 * b1[j]
				t += a2 * b2[j]
				t += a3 * b3[j]
				ot[j] = t
			}
		}
		for k := vec; k < n; k++ {
			ak := ai[k]
			if ak == 0 {
				continue
			}
			bk := b.row(k)[:len(oi)]
			for j := range oi {
				oi[j] += ak * bk[j]
			}
		}
	}
}

// lazyWalkMatrix returns the transition matrix of the paper's lazy random
// walk on g: stay put with probability 1/2, otherwise move to a uniformly
// random neighbor.
func lazyWalkMatrix(g *graph.Graph) *dense {
	n := g.N()
	m := newDense(n)
	for v := 0; v < n; v++ {
		row := m.row(v)
		deg := g.Degree(v)
		row[v] = 0.5
		if deg == 0 {
			row[v] = 1
			continue
		}
		share := 0.5 / float64(deg)
		for p := 0; p < deg; p++ {
			row[g.Neighbor(v, p)] += share
		}
	}
	return m
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
