package harness

import (
	"math"

	"anonlead/internal/core"
	"anonlead/internal/diffusion"
	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
	"anonlead/internal/stats"
)

// CautiousPoint is one point of the Lemma 1 ablation: cautious broadcast
// run in isolation at a given walk-count parameter x, measuring territory
// sizes against the Ω(x·tmix·Φ) bound and messages against Õ(x·tmix).
type CautiousPoint struct {
	X             int
	CapSize       int // x·tmix·Φ (clamped)
	MeanTerritory float64
	MaxTerritory  int
	Messages      float64
	PredictedMsgs float64 // x·tmix per candidate × candidate count
	Candidates    float64
}

// AblationCautious sweeps x and measures cautious-broadcast territories
// and cost in isolation (experiment X1). It drives the simulator itself
// rather than RunSweep, one network reset for every (x, trial): the
// territories are per-node IREMachine.Output() values, which a public Run
// does not expose.
func AblationCautious(w Workload, xs []int, trials int, seed uint64) ([]CautiousPoint, *spectral.Profile, error) {
	g, err := graph.Seeded(w.Family, w.N, seed)
	if err != nil {
		return nil, nil, err
	}
	prof, err := spectral.ProfileGraph(g, seed)
	if err != nil {
		return nil, nil, err
	}
	ire, _ := core.Lookup(string(ProtoIRE))
	points := make([]CautiousPoint, 0, len(xs))
	var nw *sim.Network
	for _, x := range xs {
		pc := core.ProtoConfig{
			N: g.N(), TMix: prof.MixingTime, Phi: prof.Conductance,
			X: x, BroadcastOnly: true,
		}
		runner, err := ire.Build(pc)
		if err != nil {
			return points, prof, err
		}
		pt := CautiousPoint{X: x}
		_, pt.CapSize, _ = core.ResolveIRE(pc) // Build accepted pc: no error
		var territories []float64
		var msgs, cands float64
		for t := 0; t < trials; t++ {
			cfg := sim.Config{Graph: g, Seed: seed ^ uint64(x)<<24 ^ uint64(t)}
			if nw == nil {
				nw = sim.New(cfg, runner.Factory)
			} else {
				nw.Reset(cfg, runner.Factory)
			}
			nw.Run(runner.Budget)
			for v := 0; v < g.N(); v++ {
				out := nw.Machine(v).(*core.IREMachine).Output()
				if out.Candidate {
					cands++
					territories = append(territories, float64(out.Territory))
					if out.Territory > pt.MaxTerritory {
						pt.MaxTerritory = out.Territory
					}
				}
			}
			msgs += float64(nw.Metrics().Messages)
		}
		pt.MeanTerritory = stats.DistOf(territories).Mean
		pt.Messages = msgs / float64(trials)
		pt.Candidates = cands / float64(trials)
		pt.PredictedMsgs = float64(x) * float64(prof.MixingTime) * pt.Candidates
		points = append(points, pt)
	}
	return points, prof, nil
}

// WalkPoint is one point of the Lemma 2 ablation: the full protocol's cell
// with the walk count scaled away from the paper's x.
type WalkPoint struct {
	Factor float64
	X      int
	Cell   Cell
}

// walkSpecs expands the X2 sweep into orchestrator cell specs: one IRE cell
// per walk-count factor. Trial seeds are shared across factors for a
// paired comparison.
func walkSpecs(w Workload, factors []float64, trials int, seed uint64) []CellSpec {
	specs := make([]CellSpec, len(factors))
	for i, f := range factors {
		specs[i] = CellSpec{
			Protocol: ProtoIRE,
			Workload: w,
			Opts:     TrialOpts{Trials: trials, Seed: seed, Proto: core.ProtoConfig{XFactor: f}},
		}
	}
	return specs
}

// AblationWalks sweeps the walk-count factor through o and measures
// election success (experiment X2): the knee should sit near factor 1 (the
// paper's x). The cells stay out of the artifact — the factor is not part
// of a cell's identity there, so the five would collide on one key.
func AblationWalks(o Orchestrator, w Workload, factors []float64, trials int, seed uint64) ([]WalkPoint, error) {
	cells, err := o.RunSweep(walkSpecs(w, factors, trials, seed))
	if err != nil {
		return nil, err
	}
	points := make([]WalkPoint, len(factors))
	for i, f := range factors {
		// The walk count Run resolved for the cell's trials.
		x, _, err := core.ResolveIRE(core.ProtoConfig{
			N: w.N, TMix: cells[i].MixingTime, Phi: cells[i].Conductance, XFactor: f,
		})
		if err != nil {
			return nil, err
		}
		points[i] = WalkPoint{Factor: f, X: x, Cell: cells[i]}
	}
	return points, nil
}

// KnowledgeSpecs expands a presumed-size sweep (the knowledge ablation,
// experiment X4) into orchestrator cell specs: IRE run with a misreported
// network size presumed = factor·n (clamped to 2), after Dieudonné & Pelc's
// study of how knowledge of n impacts election time in anonymous networks.
// The graph (and its true tmix, Φ) stays fixed; only the size the nodes are
// told changes. Trial seeds are shared across factors for a paired
// comparison.
func KnowledgeSpecs(w Workload, factors []float64, trials int, seed uint64) []CellSpec {
	specs := make([]CellSpec, len(factors))
	for i, f := range factors {
		presumed := int(f * float64(w.N))
		if presumed < 2 {
			presumed = 2
		}
		specs[i] = CellSpec{
			Protocol: ProtoIRE,
			Workload: w,
			Opts:     TrialOpts{Trials: trials, Seed: seed, PresumedN: presumed},
		}
	}
	return specs
}

// DiffusionPoint is one point of the Lemmas 5-8 ablation: the potential
// diffusion of Algorithm 7 evolved exactly (matrix powering) for an
// estimate k, reporting whether the τ(k) threshold alarm fires.
type DiffusionPoint struct {
	K          uint64
	KPow       float64 // k^{1+ε}
	Rounds     int     // r(k) from the Theorem 3 schedule
	Whites     int
	MaxPot     float64
	Tau        float64
	AlarmFired bool // max potential above τ (k detected low)
	TheoryLow  bool // k^{1+ε} < 2n+1: the regime where alarms are allowed
}

// AblationDiffusion evolves the diffusion phase exactly on the workload
// graph for doubling estimates and compares the threshold detector against
// the Lemma 5 guarantee: once k^{1+ε} ≥ 2n+1 and at least one white node
// exists, no potential exceeds τ(k). The schedule — p(k), τ(k), r(k) and
// the diffusion share — is the Revocable machine's own, resolved from the
// same ProtoConfig a run with this ε and the graph's i(G) would get; only
// the simulation cap on r(k) is X3's.
func AblationDiffusion(w Workload, eps float64, maxK uint64, seed uint64) ([]DiffusionPoint, error) {
	g, err := graph.Seeded(w.Family, w.N, seed)
	if err != nil {
		return nil, err
	}
	prof, err := spectral.ProfileGraph(g, seed)
	if err != nil {
		return nil, err
	}
	schedule, err := core.ResolveRevocable(core.ProtoConfig{Epsilon: eps, Iso: prof.Isoperimetric})
	if err != nil {
		return nil, err
	}
	n := g.N()
	r := rng.New(seed).SplitString("diffusion")
	var points []DiffusionPoint
	for k := uint64(2); k <= maxK; k *= 2 {
		kp := math.Pow(float64(k), 1+eps)
		pWhite, tau, rounds, share := schedule(k)
		// Sample colors; force at least one white in the Lemma 5 regime
		// so the guarantee's precondition (ℓ >= 1) holds.
		white := make([]bool, n)
		whites := 0
		for v := 0; v < n; v++ {
			if r.Bernoulli(pWhite) {
				white[v] = true
				whites++
			}
		}
		if whites == 0 && kp >= float64(2*n+1) {
			white[r.Intn(n)] = true
			whites = 1
		}
		// Exact diffusion via the shared substrate.
		proc, err := diffusion.New(g, share, diffusion.BlackInit(white))
		if err != nil {
			return nil, err
		}
		const roundCap = 2_000_000
		if rounds > roundCap {
			rounds = roundCap
		}
		proc.Run(rounds)
		maxPot := proc.Max()
		points = append(points, DiffusionPoint{
			K: k, KPow: kp, Rounds: rounds, Whites: whites,
			MaxPot: maxPot, Tau: tau,
			AlarmFired: maxPot > tau,
			TheoryLow:  kp < float64(2*n+1),
		})
	}
	return points, nil
}
