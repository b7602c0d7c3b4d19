package spectral

import (
	"math"

	"anonlead/internal/graph"
)

// MixingTimeExactLimit is the largest n for which ProfileGraph computes the
// exact mixing time by matrix powering; beyond it the spectral estimate is
// used. Exact powering costs O(n³·log tmix) — about a second at the limit.
// The spectral estimate can overshoot fast-mixing graphs by ~10x (it pays
// the full log(4nm) even when the true tmix is O(1)), so exactness up to
// the common experiment sizes keeps protocol parameterizations honest.
const MixingTimeExactLimit = 256

// mixingTimeExact computes the paper's tmix(G) exactly: the minimum t such
// that every row of Pᵗ is within 1/(2n) of the stationary distribution in
// the max norm (point-mass starts are the worst case, so checking rows
// suffices; arbitrary π0 are convex combinations of rows). It brackets t by
// repeated squaring and then binary-searches inside the bracket. maxT caps
// the search; when tmix exceeds it, the result is (maxT, true): an explicit
// capped flag instead of a sentinel the caller must know, so "at least
// this much" is never silently mistaken for a measured crossing.
func mixingTimeExact(g *graph.Graph, maxT int) (tmix int, capped bool) {
	n := g.N()
	if n < 2 {
		return 1, false
	}
	pi := stationary(g)

	// Bracket: powers[i] = P^(2^i); find the first power that mixes.
	powers := []*dense{lazyWalkMatrix(g)}
	t := 1
	for cur := powers[0]; !withinMixingTolerance(cur, pi); {
		if t >= maxT {
			return maxT, true
		}
		next := newDense(n)
		mulInto(next, cur, cur)
		cur = next
		t *= 2
		powers = append(powers, cur)
	}
	if t == 1 {
		return 1, false
	}

	// Binary search in (t/2, t]: acc = P^accSteps is unmixed, P^hi mixed,
	// and adding the saved powers in decreasing order halves hi − accSteps
	// each round, from t/2 down to 1. Trial products ping-pong between two
	// scratch matrices: one may hold acc while the other takes the trial.
	acc, accSteps, hi := powers[len(powers)-2], t/2, t
	var scratch [2]*dense
	free := 0
	for i := len(powers) - 3; i >= 0; i-- {
		if scratch[free] == nil {
			scratch[free] = newDense(n)
		}
		trial := scratch[free]
		mulInto(trial, acc, powers[i])
		if withinMixingTolerance(trial, pi) {
			hi = accSteps + 1<<i
		} else {
			acc, accSteps = trial, accSteps+1<<i
			free ^= 1
		}
	}
	return hi, false
}

// withinMixingTolerance reports whether every row of p is within 1/(2n) of
// the stationary distribution in max norm.
func withinMixingTolerance(p *dense, pi []float64) bool {
	n := p.n
	tol := 1 / (2 * float64(n))
	for i := 0; i < n; i++ {
		row := p.row(i)
		for j, v := range row {
			if abs(v-pi[j]) > tol {
				return false
			}
		}
	}
	return true
}

// stationary returns the stationary distribution of the lazy walk on g:
// π_v = deg(v) / (2m).
func stationary(g *graph.Graph) []float64 {
	n := g.N()
	pi := make([]float64, n)
	total := float64(2 * g.M())
	if total == 0 {
		for v := range pi {
			pi[v] = 1 / float64(n)
		}
		return pi
	}
	for v := 0; v < n; v++ {
		pi[v] = float64(g.Degree(v)) / total
	}
	return pi
}

// mixingTimeFromGap is the spectral t_mix bound: the standard
// relaxation-time bound tmix ≤ ln(2n / π_min) / (1 − λ₂), which for the
// paper's 1/(2n) tolerance and π_min ≥ 1/(2m) gives ln(4nm)/gap. It is an
// upper bound up to constants with the right growth on every family in the
// experiment suite (Θ(n²·log n) on cycles, Θ(log n) on expanders). g must
// have n >= 2; gap is the profile's own spectral gap.
func mixingTimeFromGap(g *graph.Graph, gap float64) int {
	if gap <= 0 {
		return math.MaxInt32
	}
	t := math.Log(4*float64(g.N())*float64(g.M())) / gap
	if t < 1 {
		return 1
	}
	if t > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(math.Ceil(t))
}

// exactMixingBudget caps the exact search generously; cycles need ~n²
// steps.
func exactMixingBudget(n int) int { return 8*n*n + 64 }
