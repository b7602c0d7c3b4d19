package spectral

import (
	"math"
	"math/bits"
	"sort"

	"anonlead/internal/graph"
)

// ExactCutLimit is the largest n for which conductance and isoperimetric
// number are computed by exhaustive cut enumeration (Gray-code walk over
// all 2^n subsets, O(2^n) with O(1) amortized update per step).
const ExactCutLimit = 20

// CutEdges returns |∂S|: the number of edges with exactly one endpoint in S
// (S given as a membership mask).
func CutEdges(g *graph.Graph, inS []bool) int {
	cut := 0
	for _, e := range g.Edges() {
		if inS[e[0]] != inS[e[1]] {
			cut++
		}
	}
	return cut
}

// ConductanceExact computes Φ(G) = min_S |∂S| / min(Vol(S), Vol(S̄)) by
// exhaustive enumeration. Only valid for connected g with n <= ExactCutLimit
// (panics otherwise: the caller chose the wrong tool).
func ConductanceExact(g *graph.Graph) float64 {
	phi, _ := enumerateCuts(g)
	return phi
}

// IsoperimetricExact computes i(G) = min_{|S| <= n/2} |∂S| / |S| by
// exhaustive enumeration. Same size restriction as ConductanceExact.
func IsoperimetricExact(g *graph.Graph) float64 {
	_, iso := enumerateCuts(g)
	return iso
}

// enumerateCuts walks all nonempty proper subsets in Gray-code order,
// maintaining |∂S|, Vol(S) and |S| incrementally, and returns the exact
// conductance and isoperimetric number.
func enumerateCuts(g *graph.Graph) (phi, iso float64) {
	n := g.N()
	if n > ExactCutLimit {
		panic("spectral: enumerateCuts beyond ExactCutLimit; use sweep estimates")
	}
	if n < 2 {
		return 0, 0
	}
	totalVol := 2 * g.M()
	inS := make([]bool, n)
	boundary, vol, size := 0, 0, 0
	phi = math.Inf(1)
	iso = math.Inf(1)

	total := uint64(1) << uint(n)
	prevGray := uint64(0)
	for i := uint64(1); i < total; i++ {
		gray := i ^ (i >> 1)
		flip := gray ^ prevGray
		prevGray = gray
		v := bits.TrailingZeros64(flip)

		nb := g.Adj(v)
		deg := len(nb)
		inSNow := !inS[v]
		// Count v's neighbors currently inside S.
		nbIn := 0
		for _, w := range nb {
			if inS[w] {
				nbIn++
			}
		}
		if inSNow {
			// v enters S: edges to in-S neighbors become internal, edges
			// to outside become boundary.
			boundary += deg - 2*nbIn
			vol += deg
			size++
		} else {
			boundary -= deg - 2*nbIn
			vol -= deg
			size--
		}
		inS[v] = inSNow

		if size == 0 || size == n {
			continue
		}
		minVol := vol
		if totalVol-vol < minVol {
			minVol = totalVol - vol
		}
		if minVol > 0 {
			if c := float64(boundary) / float64(minVol); c < phi {
				phi = c
			}
		}
		if size <= n/2 {
			if c := float64(boundary) / float64(size); c < iso {
				iso = c
			}
		} else if n-size <= n/2 {
			if c := float64(boundary) / float64(n-size); c < iso {
				iso = c
			}
		}
	}
	return phi, iso
}

// SweepCut orders vertices by the second eigenvector and scans prefix cuts,
// returning upper bounds on Φ(G) and i(G). By Cheeger-type results the
// conductance bound is within a quadratic factor of optimal; on all the
// symmetric families in the experiment suite it is exact or near-exact.
func SweepCut(g *graph.Graph) (phi, iso float64) {
	if g.N() < 2 {
		return 0, 0
	}
	return sweepCutFrom(g, SecondEigenvector(g))
}

// sweepCutFrom is SweepCut with the ordering vector supplied by the
// caller, so a profile that already power-iterated can reuse the
// eigenvector instead of recomputing it.
func sweepCutFrom(g *graph.Graph, vec []float64) (phi, iso float64) {
	n := g.N()
	if n < 2 {
		return 0, 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vec[order[a]] < vec[order[b]] })

	totalVol := 2 * g.M()
	inS := make([]bool, n)
	boundary, vol := 0, 0
	phi = math.Inf(1)
	iso = math.Inf(1)
	for idx, v := range order[:n-1] {
		deg := g.Degree(v)
		nbIn := 0
		for p := 0; p < deg; p++ {
			if inS[g.Neighbor(v, p)] {
				nbIn++
			}
		}
		boundary += deg - 2*nbIn
		vol += deg
		inS[v] = true
		size := idx + 1

		minVol := vol
		if totalVol-vol < minVol {
			minVol = totalVol - vol
		}
		if minVol > 0 {
			if c := float64(boundary) / float64(minVol); c < phi {
				phi = c
			}
		}
		minSize := size
		if n-size < minSize {
			minSize = n - size
		}
		if c := float64(boundary) / float64(minSize); c < iso {
			iso = c
		}
	}
	return phi, iso
}

// Conductance returns Φ(G): exact for n <= ExactCutLimit, sweep-cut upper
// bound otherwise.
func Conductance(g *graph.Graph) float64 {
	if g.N() <= ExactCutLimit {
		return ConductanceExact(g)
	}
	phi, _ := SweepCut(g)
	return phi
}

// Isoperimetric returns i(G): exact for n <= ExactCutLimit, sweep-cut upper
// bound otherwise.
func Isoperimetric(g *graph.Graph) float64 {
	if g.N() <= ExactCutLimit {
		return IsoperimetricExact(g)
	}
	_, iso := SweepCut(g)
	return iso
}

// CheegerBounds returns the interval [gap/2, sqrt(2·gap)] that must contain
// the chain conductance φ(P) of the lazy walk, from the standard Cheeger
// inequalities φ²/2 <= gap <= 2φ. Tests cross-check sweep estimates
// against it.
func CheegerBounds(g *graph.Graph) (lo, hi float64) {
	gap := SpectralGap(g)
	return gap / 2, math.Sqrt(2 * gap)
}

// ChainConductance returns the conductance φ(P) of the lazy-walk Markov
// chain per the paper's Section 2 definition (edge measure over stationary
// measure). For the lazy walk, Q(S, S̄) = |∂S|/(4m) and π(S) = Vol(S)/(2m),
// so φ(P) = Φ(G)/2.
func ChainConductance(g *graph.Graph) float64 {
	return Conductance(g) / 2
}
