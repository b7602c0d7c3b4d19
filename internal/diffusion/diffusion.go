// Package diffusion implements the potential-averaging process at the
// heart of the paper's Avg procedure (Algorithm 7): every node repeatedly
// replaces its potential Φ_v with
//
//	Φ_v ← Φ_v + Σ_{w∈N(v)} s·(Φ_w − Φ_v),
//
// where s is the sharing fraction (the paper uses s = 1/(2k^{1+ε}) for the
// estimate k). The update matrix S is symmetric and doubly stochastic for
// s ≤ 1/(2·Δ), so the process conserves total potential and converges to
// the uniform average at a rate governed by the chain conductance
// φ = i(G)·s (paper Section 5.3, Lemmas 3-4).
//
// The package provides an exact (numerical) evolution used by analysis
// tooling and tests — the protocol machines in internal/core implement the
// same update distributedly; the ablation experiments cross-check the two.
//
// See docs/ARCHITECTURE.md for where this sits in the paper-to-code map.
package diffusion

import (
	"fmt"
	"math"

	"anonlead/internal/graph"
)

// Process is an exact diffusion evolution over a graph. It is a small
// dense-state simulator: O(m) per step.
type Process struct {
	g     *graph.Graph
	share float64
	pot   []float64
	buf   []float64
}

// New creates a process with the given sharing fraction and initial
// potentials (copied). It returns an error when the share is non-positive
// or large enough to break stochasticity (s·Δ > 1, at which point the
// update matrix has negative diagonal entries).
func New(g *graph.Graph, share float64, initial []float64) (*Process, error) {
	if len(initial) != g.N() {
		return nil, fmt.Errorf("diffusion: %d initial potentials for %d nodes", len(initial), g.N())
	}
	if share <= 0 {
		return nil, fmt.Errorf("diffusion: non-positive share %v", share)
	}
	if maxDeg := g.MaxDegree(); share*float64(maxDeg) > 1 {
		return nil, fmt.Errorf("diffusion: share %v too large for max degree %d", share, maxDeg)
	}
	p := &Process{
		g:     g,
		share: share,
		pot:   append([]float64(nil), initial...),
		buf:   make([]float64, g.N()),
	}
	return p, nil
}

// BlackInit returns the Algorithm 7 initial potentials: 1 for black nodes,
// 0 for white nodes.
func BlackInit(white []bool) []float64 {
	pot := make([]float64, len(white))
	for i, w := range white {
		if !w {
			pot[i] = 1
		}
	}
	return pot
}

// Potential returns node v's current potential.
func (p *Process) Potential(v int) float64 { return p.pot[v] }

// Potentials returns a copy of the current potential vector.
func (p *Process) Potentials() []float64 {
	return append([]float64(nil), p.pot...)
}

// Sum returns the total potential (invariant across steps up to FP error).
func (p *Process) Sum() float64 {
	s := 0.0
	for _, v := range p.pot {
		s += v
	}
	return s
}

// Max returns the maximum node potential.
func (p *Process) Max() float64 {
	m := math.Inf(-1)
	for _, v := range p.pot {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum node potential.
func (p *Process) Min() float64 {
	m := math.Inf(1)
	for _, v := range p.pot {
		if v < m {
			m = v
		}
	}
	return m
}

// Spread returns Max - Min, the convergence residual.
func (p *Process) Spread() float64 { return p.Max() - p.Min() }

// Step advances one synchronous averaging exchange.
func (p *Process) Step() {
	n := p.g.N()
	for v := 0; v < n; v++ {
		acc := p.pot[v]
		deg := p.g.Degree(v)
		for q := 0; q < deg; q++ {
			acc += p.share * (p.pot[p.g.Neighbor(v, q)] - p.pot[v])
		}
		p.buf[v] = acc
	}
	p.pot, p.buf = p.buf, p.pot
}

// Run advances steps exchanges.
func (p *Process) Run(steps int) {
	for i := 0; i < steps; i++ {
		p.Step()
	}
}

// RunUntilSpread advances until Spread() <= eps or maxSteps, returning the
// steps taken in this call.
func (p *Process) RunUntilSpread(eps float64, maxSteps int) int {
	taken := 0
	for taken < maxSteps && p.Spread() > eps {
		p.Step()
		taken++
	}
	return taken
}

// ConvergenceBound returns the Lemma 4 round bound (2/φ²)·ln(n/γ) for the
// process's chain conductance φ = i(G)·share, given the graph's
// isoperimetric number.
func ConvergenceBound(g *graph.Graph, share, iso, gamma float64) int {
	if iso <= 0 || gamma <= 0 {
		return math.MaxInt32
	}
	phi := iso * share
	r := 2 / (phi * phi) * math.Log(float64(g.N())/gamma)
	if r < 1 {
		return 1
	}
	if r > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(math.Ceil(r))
}
