package core

import (
	"fmt"
	"math"

	"anonlead/internal/rng"
)

// DefaultC is the default analysis constant c. The paper requires only
// "sufficiently large" c; this value is calibrated to reach >95%
// unique-election rates at simulable sizes.
const DefaultC = 2.0

// CLogN returns the two factors of every "c·log n" quantity of the paper's
// protocols and the baselines (candidate rate, walk and broadcast lengths):
// the analysis constant in effect — DefaultC unless c is positive — and
// ln n, at least 1.
func CLogN(n int, c float64) (float64, float64) {
	if c <= 0 {
		c = DefaultC
	}
	return c, math.Max(math.Log(float64(n)), 1)
}

// CheckC rejects an analysis constant CLogN would silently replace by the
// default: a negative c or NaN. Zero is the documented way to ask for
// DefaultC.
func CheckC(c float64) error {
	if c < 0 || math.IsNaN(c) {
		return fmt.Errorf("C must be >= 0 (0 selects %v), got %v", DefaultC, c)
	}
	return nil
}

// Candidacy is the paper's candidate sampling (Algorithm 1 lines 2-3):
// every node draws an ID uniformly from [1, MaxID] and becomes a candidate
// with probability Prob. IRE, FloodMax/AllFlood and WalkNotify all sample
// through it, so one node seed yields one (ID, candidacy) whichever of them
// runs.
type Candidacy struct {
	Prob  float64
	MaxID uint64
}

// NewCandidacy derives the sampling from the size n the nodes are told and
// the analysis constant c (see CLogN): Prob = (c·ln n)/n, at most 1, and
// IDs from [1, n⁴], which makes a collision among the candidates unlikely
// by the paper's birthday argument. n⁴ is computed modulo 2⁶⁴ and wraps
// above n = 65535 (the recorded 100k-node cells draw from the wrapped
// range); a product that wraps to exactly 0 selects the whole uint64 range
// instead of an empty one.
func NewCandidacy(n int, c float64) Candidacy {
	c, ln := CLogN(n, c)
	nn := uint64(n)
	maxID := nn * nn * nn * nn
	if maxID == 0 {
		maxID = math.MaxUint64
	}
	return Candidacy{Prob: math.Min(c*ln/float64(n), 1), MaxID: maxID}
}

// Draw samples one node's ID, then its candidacy coin, from the node's
// private stream. The order is part of every recorded run.
func (c Candidacy) Draw(r *rng.RNG) (id uint64, candidate bool) {
	id = 1 + r.Uint64n(c.MaxID)
	return id, r.Bernoulli(c.Prob)
}
