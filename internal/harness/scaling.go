package harness

// ScalingPlan expands the scaling experiment (lebench -exp scaling), the
// estimate-regime counterpart of Table 1: size ramps far past
// MixingTimeExactLimit, where the streaming spectral estimators and the
// struct-of-arrays simulator state are what make a cell affordable at all.
// The full matrix ramps n = 10³…10⁵ on expanders (FloodMax to 10⁵; the
// walk-based protocols to 10⁴, where their tmix-long executions stay
// affordable) plus cycle and diameter-2 ramps that pin the two extreme
// mixing regimes. The quick matrix is the CI smoke: one 10⁵-node expander
// cell run twice, so the second run demonstrates the profile-cache hit end
// to end. trials is an override (0 = 2 full / 1 quick). lebench runs the
// cells one at a time to put a wall clock on each.
func ScalingPlan(quick bool, trials int, seed uint64) Plan {
	t := planTrials(trials, 2)
	if quick {
		t = planTrials(trials, 1)
	}
	opts := TrialOpts{Trials: t, Seed: seed}
	section := func(title string, p Protocol, family string, sizes ...int) PlanSection {
		return PlanSection{title, SweepSpecs(p, family, sizes, opts)}
	}
	if quick {
		return Plan{[]PlanSection{
			section("Scaling smoke: FloodMax on a 100k-node expander (cold)", ProtoFlood, "expander", 100_000),
			section("Scaling smoke: FloodMax on a 100k-node expander (cached)", ProtoFlood, "expander", 100_000),
		}}
	}
	return Plan{[]PlanSection{
		section("Scaling: FloodMax (Kutten-class) on expanders", ProtoFlood, "expander", 1_000, 10_000, 100_000),
		section("Scaling: IRE (this work) on expanders", ProtoIRE, "expander", 1_000, 4_000, 10_000),
		section("Scaling: Gilbert-class baseline on expanders", ProtoWalkNotify, "expander", 1_000, 4_000, 10_000),
		section("Scaling: FloodMax (Kutten-class) on cycles", ProtoFlood, "cycle", 1_024, 4_096, 16_384),
		section("Scaling: FloodMax (Kutten-class) on diameter-2 clique-of-cliques", ProtoFlood, "diam2", 1_001, 4_001, 10_001),
	}}
}
