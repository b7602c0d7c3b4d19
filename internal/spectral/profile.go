package spectral

import (
	"fmt"
	"strings"

	"anonlead/internal/graph"
)

// Profile is the structural profile of a network: the quantities the
// paper's protocols are parameterized by, plus the regime flags saying how
// each one was obtained. The root package aliases this type as
// anonlead.Profile (Network.Profile exposes it), and
// the harness records one per sweep cell.
type Profile struct {
	N         int // nodes
	M         int // edges
	Diameter  int // exact diameter; a double-sweep lower bound when Estimated
	MinDegree int // minimum degree
	MaxDegree int // maximum degree

	Lambda2     float64 // second eigenvalue of the lazy walk
	SpectralGap float64 // 1 − Lambda2

	MixingTime  int  // paper tmix(G): exact at small n, sampled/spectral estimate otherwise
	ExactMixing bool // whether MixingTime is exact
	// MixingCapped reports that the mixing-time search hit its step
	// budget: the exact regime returns the cap as a lower bound, the
	// estimate regime extrapolates the measured TV decay past its walked
	// horizon. Either way the value is "at least this much", not a
	// measured crossing.
	MixingCapped bool

	Conductance   float64 // Φ(G): exact for n <= ExactCutLimit, else sweep-cut bound
	Isoperimetric float64 // i(G): same regime split as Conductance
	ExactCuts     bool    // whether Conductance/Isoperimetric are exact

	// Estimated reports that the streaming estimate regime produced this
	// profile (ModeEstimate, or ModeAuto above EstimateThreshold):
	// diameter is a lower bound, tmix comes from sampled walks, cuts from
	// a sweep cut over a budgeted eigenvector.
	Estimated bool
}

// ProfileGraph computes the exact-regime Profile for g — the legacy
// reference path, byte-identical to every profile computed before modes
// existed. g must be connected; profiling a disconnected graph returns an
// error because every quantity is degenerate there (tmix = ∞, Φ = 0).
func ProfileGraph(g *graph.Graph) (*Profile, error) {
	return ProfileGraphMode(g, ModeExact, 0)
}

// ProfileGraphMode computes a Profile for g under the given regime. seed
// feeds the estimate regime's deterministic walk-start sampling (the
// exact regime ignores it); same (graph, resolved mode, seed) — same
// profile, bit for bit. The estimate regime never materializes an n×n
// matrix: every pass is O(m) per step.
func ProfileGraphMode(g *graph.Graph, mode Mode, seed uint64) (*Profile, error) {
	if !g.IsConnected() {
		return nil, fmt.Errorf("spectral: profile requires a connected graph (components=%d)", g.ComponentCount())
	}
	if mode.Resolve(g.N()) == ModeEstimate {
		return estimateProfile(g, seed)
	}
	return exactProfile(g)
}

// exactProfile is the legacy exact regime (dense tmix powering at small
// n, all-pairs BFS diameter, enumerated cuts at tiny n).
func exactProfile(g *graph.Graph) (*Profile, error) {
	p := &Profile{
		N:         g.N(),
		M:         g.M(),
		Diameter:  g.Diameter(),
		MinDegree: g.MinDegree(),
		MaxDegree: g.MaxDegree(),
	}
	// One power iteration serves λ₂, the sweep-cut ordering and (above
	// MixingTimeExactLimit) the spectral tmix bound.
	lambda, vec := secondEigenpair(g, eigenIterations, eigenTol)
	p.Lambda2 = lambda
	p.SpectralGap = 1 - lambda
	p.ExactMixing = g.N() <= MixingTimeExactLimit
	if p.ExactMixing {
		p.MixingTime, p.MixingCapped = mixingTimeExact(g, exactMixingBudget(g.N()))
	} else {
		p.MixingTime = mixingTimeFromGap(g, p.SpectralGap)
	}
	p.ExactCuts = g.N() <= ExactCutLimit
	if p.ExactCuts {
		p.Conductance, p.Isoperimetric = enumerateCuts(g)
	} else {
		p.Conductance, p.Isoperimetric = sweepCutFrom(g, walkCoords(g, vec))
	}
	return p, nil
}

// Mode returns the resolved regime that produced the profile: ModeEstimate
// when Estimated, ModeExact otherwise.
func (p Profile) Mode() Mode {
	if p.Estimated {
		return ModeEstimate
	}
	return ModeExact
}

// String renders the profile as the aligned block the CLIs print.
func (p Profile) String() string {
	var b strings.Builder
	diam := fmt.Sprintf("diameter=%d", p.Diameter)
	if p.Estimated {
		diam = fmt.Sprintf("diameter>=%d", p.Diameter)
	}
	fmt.Fprintf(&b, "n=%d m=%d %s degree=[%d,%d]\n", p.N, p.M, diam, p.MinDegree, p.MaxDegree)
	fmt.Fprintf(&b, "lambda2=%.6f gap=%.6f\n", p.Lambda2, p.SpectralGap)
	tmix := "spectral bound"
	if p.ExactMixing {
		tmix = "exact"
	} else if p.Estimated {
		tmix = "sampled"
	}
	if p.MixingCapped {
		tmix += ", capped"
	}
	cuts := "sweep cut"
	if p.ExactCuts {
		cuts = "exact"
	}
	fmt.Fprintf(&b, "tmix=%d (%s)\n", p.MixingTime, tmix)
	fmt.Fprintf(&b, "conductance=%.6f isoperimetric=%.6f (%s)", p.Conductance, p.Isoperimetric, cuts)
	return b.String()
}
