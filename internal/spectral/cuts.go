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

// enumerateCuts walks all nonempty proper subsets in Gray-code order,
// maintaining |∂S|, Vol(S) and |S| incrementally, and returns the exact
// conductance and isoperimetric number. Only valid for n <= ExactCutLimit
// (panics otherwise: the caller chose the wrong tool).
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

// sweepCutFrom orders vertices by vec (the profile's second eigenvector in
// walk coordinates) and scans prefix cuts, returning upper bounds on Φ(G)
// and i(G). By Cheeger-type results the conductance bound is within a
// quadratic factor of optimal; on all the symmetric families in the
// experiment suite it is exact or near-exact.
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
