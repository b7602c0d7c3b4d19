package spectral

import (
	"math"

	"anonlead/internal/graph"
)

// eigenIterations bounds the power-iteration loop. The iterate converges
// geometrically at rate λ₃/λ₂; this budget resolves the spectral gap well
// below harness tolerances even on near-degenerate spectra (long cycles).
const eigenIterations = 10000

// eigenTol is the relative change threshold at which power iteration stops.
const eigenTol = 1e-12

// estimateEigenTol is the looser stopping threshold of the estimate
// regime: λ₂ there only parameterizes the tmix fallback and orders the
// sweep cut, neither of which resolves past ~1e-6.
const estimateEigenTol = 1e-10

// estimateEigenBudget bounds the estimate regime's power iteration by
// flops rather than a fixed count: roughly 4·10⁸ edge visits total, so a
// sparse large graph gets fewer iterations and a small one keeps the full
// exact-regime budget.
func estimateEigenBudget(g *graph.Graph) int {
	work := g.M() + g.N()
	if work < 1 {
		work = 1
	}
	iters := int(4e8 / float64(work))
	if iters > eigenIterations {
		return eigenIterations
	}
	if iters < 800 {
		return 800
	}
	return iters
}

// walkCoords maps a symmetric-space vector y to the walk's right
// eigenvector x = D^{-1/2} y so that orderings reflect the diffusion
// geometry of the walk.
func walkCoords(g *graph.Graph, vec []float64) []float64 {
	out := make([]float64, len(vec))
	for v := range vec {
		d := g.Degree(v)
		if d == 0 {
			out[v] = vec[v]
			continue
		}
		out[v] = vec[v] / math.Sqrt(float64(d))
	}
	return out
}

// secondEigenpair power-iterates the symmetric matrix N = D^{1/2}·P·D^{-1/2}
// (same spectrum as the lazy walk P, reversible with π_v ∝ deg v) while
// deflating the known top eigenvector √deg, for at most maxIter iterations
// or until λ changes by at most tol relative. Matrix-free, O(m) per
// iteration. Each regime calls it once per profile: the exact one with
// eigenIterations and eigenTol, the estimate one with its flop budget.
func secondEigenpair(g *graph.Graph, maxIter int, tol float64) (float64, []float64) {
	n := g.N()
	if n < 2 {
		return 0, make([]float64, n)
	}
	// sq[v] = √deg v, computed once; z is applyLazySym's per-iteration
	// scratch. The top eigenvector of N is sq normalized.
	sq := make([]float64, n)
	for v := range sq {
		sq[v] = math.Sqrt(float64(g.Degree(v)))
	}
	z := make([]float64, n)
	top := append([]float64(nil), sq...)
	normalize(top)

	// Deterministic, non-degenerate start vector orthogonal to top.
	x := make([]float64, n)
	for v := range x {
		x[v] = math.Sin(float64(v+1)) + 1e-3*float64(v%7)
	}
	orthogonalize(x, top)
	normalize(x)

	y := make([]float64, n)
	lambda := 0.0
	for iter := 0; iter < maxIter; iter++ {
		applyLazySym(g, sq, z, x, y)
		orthogonalize(y, top)
		newLambda := math.Sqrt(dot(y, y))
		if newLambda == 0 {
			return 0, x // x was numerically inside the top eigenspace
		}
		for v := range y {
			y[v] /= newLambda
		}
		x, y = y, x
		if iter > 8 && math.Abs(newLambda-lambda) <= tol*newLambda {
			return newLambda, x
		}
		lambda = newLambda
	}
	return lambda, x
}

// applyLazySym computes y = N·x for the symmetrized lazy-walk matrix
// N[v][w] = 1/(2·sqrt(deg_v·deg_w)) on edges and N[v][v] = 1/2, with
// sq[v] = √deg v supplied and z as scratch. Dividing x by sq once per node
// (z) instead of once per edge leaves every operation, operand and
// summation order of the per-edge formula in place — the result is
// bit-identical — at n divisions per call instead of 2m square roots and
// 2m divisions.
func applyLazySym(g *graph.Graph, sq, z, x, y []float64) {
	for v, xv := range x {
		z[v] = xv / sq[v] // ±Inf/NaN at an isolated node, which nobody reads
	}
	for v, xv := range x {
		nb := g.Adj(v)
		if len(nb) == 0 {
			y[v] = xv
			continue
		}
		acc := 0.0
		for _, w := range nb {
			acc += z[w]
		}
		y[v] = 0.5*xv + acc/(2*sq[v])
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func normalize(x []float64) {
	n := math.Sqrt(dot(x, x))
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}

// orthogonalize removes the component of x along the unit vector u.
func orthogonalize(x, u []float64) {
	c := dot(x, u)
	for i := range x {
		x[i] -= c * u[i]
	}
}
