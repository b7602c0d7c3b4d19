package harness

import (
	"fmt"
	"math"

	"anonlead"
	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/pumping"
	"anonlead/internal/spectral"
	"anonlead/internal/stats"
)

// predictMsgs evaluates the leading message term of each protocol's bound.
func predictMsgs(p Protocol, prof *spectral.Profile) float64 {
	n := float64(prof.N)
	tmix := float64(prof.MixingTime)
	switch p {
	case ProtoIRE: // Õ(√(n·tmix/Φ))
		return math.Sqrt(n * tmix / prof.Conductance)
	case ProtoExplicit: // implicit bound + O(m) announcement
		return math.Sqrt(n*tmix/prof.Conductance) + float64(prof.M)
	case ProtoWalkNotify: // O(tmix·√n·log^{7/2} n)
		return tmix * math.Sqrt(n)
	case ProtoFlood, ProtoAllFlood: // Ω(m) class
		return float64(prof.M)
	case ProtoRevocable: // Õ(n^{4(1+ε)}·m/i(G)²); leading shape only
		return math.Pow(n, 4) * float64(prof.M) / (prof.Isoperimetric * prof.Isoperimetric)
	default:
		return 0
	}
}

// predictTime evaluates the leading time term of each protocol's bound.
func predictTime(p Protocol, prof *spectral.Profile) float64 {
	n := float64(prof.N)
	tmix := float64(prof.MixingTime)
	ln := math.Log(n)
	switch p {
	case ProtoIRE: // O(tmix·log² n)
		return tmix * ln * ln
	case ProtoExplicit: // implicit bound + O(n) announcement window
		return tmix*ln*ln + n
	case ProtoWalkNotify:
		return tmix * ln * ln
	case ProtoFlood, ProtoAllFlood: // O(D)
		return float64(prof.Diameter)
	case ProtoRevocable: // Õ(n^{4(1+ε)}/i(G)²)
		return math.Pow(n, 4) / (prof.Isoperimetric * prof.Isoperimetric)
	default:
		return 0
	}
}

// SweepSpecs expands one protocol × family × size sweep into orchestrator
// cell specs (one per size, all sharing opts).
func SweepSpecs(p Protocol, family string, sizes []int, opts TrialOpts) []CellSpec {
	specs := make([]CellSpec, len(sizes))
	for i, n := range sizes {
		specs[i] = CellSpec{Protocol: p, Workload: Workload{Family: family, N: n}, Opts: opts}
	}
	return specs
}

// SplitBrainPoint is one measured point of the Figure 1/2 reproduction.
type SplitBrainPoint struct {
	Layout      pumping.Layout
	Trials      int
	MultiLeader int     // trials electing more than one leader
	MeanLeaders float64 // mean number of leaders
	SplitCores  int     // trials with a witness split-brained in both segments
	ZeroLeader  int
}

// SplitBrainExperiment runs the pumping-wheel experiment: the IRE protocol
// parameterized for a presumed cycle C_n executes on wheels C_N with a
// growing number of planted witnesses; Theorem 2 predicts the
// multi-leader probability approaches 1 as witnesses are added.
//
// The trial loop stays bespoke: the wheels are NewNetworkFromGraph
// networks, not Workloads a CellSpec can name.
func SplitBrainExperiment(presumedN int, witnessCounts []int, trials int, seed uint64) ([]SplitBrainPoint, error) {
	cycle, err := anonlead.NewNetworkFromGraph(graph.Cycle(presumedN))
	if err != nil {
		return nil, err
	}
	// Every node, on the cycle and on the wheels, is told it lives on C_n:
	// its size and its profile, not the wheel's — the one misreport Run
	// cannot default.
	presumed, err := cycle.Profile()
	if err != nil {
		return nil, err
	}
	pc := core.ProtoConfig{N: presumedN, TMix: presumed.MixingTime, Phi: presumed.Conductance}
	// Recover T(n): the protocol's fixed running time for the presumed n.
	probe, err := runTrial(cycle, "ire", pc, seed, TrialOpts{})
	if err != nil {
		return nil, err
	}
	tOfN := probe.Metrics.Rounds

	points := make([]SplitBrainPoint, 0, len(witnessCounts))
	for _, wc := range witnessCounts {
		layout, err := pumping.NewLayout(presumedN, tOfN, wc)
		if err != nil {
			return points, err
		}
		pt := SplitBrainPoint{Layout: layout, Trials: trials}
		wheel, err := anonlead.NewNetworkFromGraph(layout.Wheel())
		if err != nil {
			return points, err
		}
		sumLeaders := 0
		for tr := 0; tr < trials; tr++ {
			trialSeed := seed ^ uint64(wc)<<40 ^ uint64(tr)<<8 ^ 0x5bd1
			trial, err := runTrial(wheel, "ire", pc, trialSeed, TrialOpts{})
			if err != nil {
				return points, err
			}
			res := pumping.Analyze(layout, trial.Leaders)
			sumLeaders += res.NLeaders()
			if res.MultiLeader() {
				pt.MultiLeader++
			}
			if res.NLeaders() == 0 {
				pt.ZeroLeader++
			}
			if res.SplitWitnesses > 0 {
				pt.SplitCores++
			}
		}
		pt.MeanLeaders = float64(sumLeaders) / float64(trials)
		points = append(points, pt)
	}
	return points, nil
}

// RenderSplitBrain renders the Figure 1/2 series.
func RenderSplitBrain(presumedN int, points []SplitBrainPoint) string {
	t := Table{
		Title: fmt.Sprintf("Figures 1-2: pumping wheel, IRE presuming n=%d on C_N", presumedN),
		Header: []string{
			"witnesses", "N", "T(n)", "P(multi)", "lo", "hi", "E[leaders]", "splitcores", "zero",
		},
	}
	for _, pt := range points {
		lo, hi := stats.Wilson(pt.MultiLeader, pt.Trials)
		t.AddRow(
			I(pt.Layout.Witnesses), I(pt.Layout.WheelN), I(pt.Layout.T),
			F(float64(pt.MultiLeader)/float64(pt.Trials)), F(lo), F(hi),
			F(pt.MeanLeaders), I(pt.SplitCores), I(pt.ZeroLeader),
		)
	}
	return t.String()
}
