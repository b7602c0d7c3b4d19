package spectral

import (
	"math"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// estimateStarts is the number of sampled point-mass start distributions
// the mixing-time estimator evolves. tmix(G) is a maximum over point-mass
// starts; sampling a handful and taking the max underestimates only when
// the sampled starts all miss the slowest-mixing vertex class, which the
// symmetric experiment families do not have.
const estimateStarts = 4

// estimateTmixBudget is the per-start step budget of the sampled walk.
// Starts that have not mixed within it are extrapolated from their
// measured geometric TV decay (and reported as capped).
func estimateTmixBudget(n int) int {
	b := 8 * n
	if b < 512 {
		b = 512
	}
	if b > 4096 {
		b = 4096
	}
	return b
}

// mixingTimeSampled estimates the paper's tmix(G) by evolving exact
// lazy-walk distributions from sampled point-mass starts: x_{t+1} = x_t·P
// is a sparse O(m) product, so no n×n matrix is ever built. Each start
// stops at the first t with max-norm distance to the stationary
// distribution at most 1/(2n) (the paper's tolerance); a start that
// exhausts its step budget is extrapolated along its measured geometric
// decay rate, falling back to the spectral bound of gap (the profile's
// own spectral gap) when no decay is measurable. The returned capped flag
// reports that at least one start was extrapolated, i.e. the value is an
// estimate beyond the walked horizon rather than a measured crossing.
//
// Start selection is deterministic via the rng seed chain, so estimated
// profiles are byte-identical across sweep workers and cache hits.
func mixingTimeSampled(g *graph.Graph, seed uint64, gap float64) (tmix int, capped bool) {
	n := g.N()
	if n < 2 {
		return 1, false
	}
	pi := stationary(g)
	tol := 1 / (2 * float64(n))
	budget := estimateTmixBudget(n)

	tmix = 1
	for _, start := range sampleStarts(g, seed) {
		t, c := mixFromStart(g, pi, start, tol, budget, gap)
		if t > tmix {
			tmix = t
		}
		capped = capped || c
	}
	return tmix, capped
}

// sampleStarts draws up to estimateStarts distinct start vertices from
// the profile seed chain.
func sampleStarts(g *graph.Graph, seed uint64) []int {
	n := g.N()
	k := estimateStarts
	if k > n {
		k = n
	}
	r := rng.New(seed).SplitString("spectral:tmix-starts")
	starts := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(starts) < k {
		v := r.Intn(n)
		if !seen[v] {
			seen[v] = true
			starts = append(starts, v)
		}
	}
	return starts
}

// mixFromStart evolves one point-mass distribution under the lazy walk
// until it is within tol of stationarity in max norm, or the budget runs
// out and the crossing is extrapolated from the measured decay (or, when
// none is measurable, taken from the spectral bound of gap).
func mixFromStart(g *graph.Graph, pi []float64, start int, tol float64, budget int, gap float64) (int, bool) {
	n := g.N()
	x := make([]float64, n)
	y := make([]float64, n)
	x[start] = 1

	// Geometric-decay checkpoint for extrapolation: the distance halfway
	// through the budget, past any early transient.
	half := budget / 2
	dHalf := math.Inf(1)
	var d float64
	for t := 1; t <= budget; t++ {
		stepLazy(g, x, y)
		x, y = y, x
		d = maxNormDist(x, pi)
		if d <= tol {
			return t, false
		}
		if t == half {
			dHalf = d
		}
	}

	// Budget exhausted: extrapolate d(t) ~ d(budget)·ρ^(t-budget) with the
	// per-step rate measured over the second half of the walk.
	if dHalf > d && dHalf != math.Inf(1) && d > 0 {
		rho := math.Pow(d/dHalf, 1/float64(budget-half))
		if rho > 0 && rho < 1 {
			extra := math.Ceil(math.Log(tol/d) / math.Log(rho))
			t := float64(budget) + extra
			if t > math.MaxInt32 {
				return math.MaxInt32, true
			}
			return int(t), true
		}
	}
	// No measurable decay (flat or numerically degenerate): fall back to
	// the spectral bound, never reporting less than the walked budget.
	t := mixingTimeFromGap(g, gap)
	if t < budget {
		t = budget
	}
	return t, true
}

// stepLazy advances a distribution one step of the lazy walk: y = x·P
// with P = (I + D⁻¹A)/2, a sparse O(m) product.
func stepLazy(g *graph.Graph, x, y []float64) {
	clear(y)
	for v, xv := range x {
		if xv == 0 {
			continue
		}
		nb := g.Adj(v)
		if len(nb) == 0 {
			y[v] += xv
			continue
		}
		y[v] += xv / 2
		share := xv / (2 * float64(len(nb)))
		for _, w := range nb {
			y[w] += share
		}
	}
}

// maxNormDist returns max_v |x[v] - pi[v]|.
func maxNormDist(x, pi []float64) float64 {
	pi = pi[:len(x)]
	d := 0.0
	for v, xv := range x {
		if diff := math.Abs(xv - pi[v]); diff > d {
			d = diff
		}
	}
	return d
}

// estimateProfile computes the streaming-regime profile: every quantity
// from O(m)-per-step passes, no dense matrix, no all-pairs BFS.
func estimateProfile(g *graph.Graph, seed uint64) *Profile {
	p := &Profile{
		N:         g.N(),
		M:         g.M(),
		Diameter:  g.DiameterLowerBound(),
		MinDegree: g.MinDegree(),
		MaxDegree: g.MaxDegree(),
		Estimated: true,
	}
	lambda, vec := secondEigenpair(g, estimateEigenBudget(g), estimateEigenTol)
	p.Lambda2 = lambda
	p.SpectralGap = 1 - lambda
	p.MixingTime, p.MixingCapped = mixingTimeSampled(g, seed, p.SpectralGap)
	p.Conductance, p.Isoperimetric = sweepCutFrom(g, walkCoords(g, vec))
	return p
}
