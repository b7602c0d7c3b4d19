package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"anonlead/internal/adversary"
	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
)

// counted wraps a protocol machine, counting the Steps the network makes.
// With cancel set it follows every Step with IdleUntil(0), withdrawing any
// promise the machine made: the network then steps it every round, the
// schedule of a simulator without the hint.
type counted struct {
	sim.Machine
	cancel bool
	steps  int64
}

func (m *counted) Step(ctx *sim.Context, inbox []sim.Packet) {
	m.steps++
	m.Machine.Step(ctx, inbox)
	if m.cancel {
		ctx.IdleUntil(0)
	}
}

// unwrapped is a network as the protocol's collector expects to see it.
type unwrapped struct{ *sim.Network }

func (v unwrapped) Machine(i int) sim.Machine { return v.Network.Machine(i).(*counted).Machine }

// hintRun is everything an election shows from outside: who leads, the
// full cost accounting and every node's output.
type hintRun struct {
	outcome core.Outcome
	metrics sim.Metrics
	outputs []any
	steps   int64
}

// runCounted runs one election of proto under spec's adversary, every
// machine wrapped in counted; cancel withdraws every idle hint.
func runCounted(t *testing.T, proto string, g *graph.Graph, pc core.ProtoConfig, spec adversary.Spec, seed uint64, cancel bool) hintRun {
	t.Helper()
	runner := mustBuild(t, proto, pc)
	adv, err := spec.Build(g, adversary.DeriveRunSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	nw := sim.New(sim.Config{Graph: g, Seed: seed, Adversary: adv},
		func(node, degree int, r *rng.RNG) sim.Machine {
			return &counted{Machine: runner.Factory(node, degree, r), cancel: cancel}
		})
	nw.Run(runner.Budget)
	if !nw.AllHalted() {
		t.Fatalf("did not halt within %d rounds", runner.Budget)
	}
	run := hintRun{outcome: runner.Collect(unwrapped{nw}), metrics: nw.Metrics()}
	for v := 0; v < g.N(); v++ {
		m := nw.Machine(v).(*counted)
		run.steps += m.steps
		run.outputs = append(run.outputs, reflect.ValueOf(m.Machine).MethodByName("Output").Call(nil)[0].Interface())
	}
	return run
}

// profiled builds a seeded family member and the protocol inputs its exact
// profile gives.
func profiled(t *testing.T, family string, n int) (*graph.Graph, core.ProtoConfig) {
	t.Helper()
	g, err := graph.Seeded(family, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := spectral.ProfileGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, core.ProtoConfig{N: g.N(), TMix: prof.MixingTime, Phi: prof.Conductance, Diam: prof.Diameter}
}

// sameElection fails unless the hinted run shows exactly what the plain run
// shows, in no more steps.
func sameElection(t *testing.T, hinted, plain hintRun) {
	t.Helper()
	if !reflect.DeepEqual(hinted.outcome, plain.outcome) {
		t.Fatalf("outcome differs:\nhinted %+v\nplain  %+v", hinted.outcome, plain.outcome)
	}
	if hinted.metrics != plain.metrics {
		t.Fatalf("metrics differ:\nhinted %+v\nplain  %+v", hinted.metrics, plain.metrics)
	}
	for v := range plain.outputs {
		if !reflect.DeepEqual(hinted.outputs[v], plain.outputs[v]) {
			t.Fatalf("node %d output differs:\nhinted %+v\nplain  %+v", v, hinted.outputs[v], plain.outputs[v])
		}
	}
	if hinted.steps > plain.steps {
		t.Fatalf("hints added steps: %d > %d", hinted.steps, plain.steps)
	}
}

// TestIdleHintsChangeNothing runs every protocol that gives IdleUntil hints
// with and without them — across graph families, seeds and adversaries —
// and requires the same leaders, the same sim.Metrics and the same output
// at every node: a skipped Step is a no-op.
func TestIdleHintsChangeNothing(t *testing.T) {
	families := []struct {
		name string
		n    int
	}{{"complete", 32}, {"expander", 64}, {"cycle", 48}, {"hypercube", 64}, {"diam2", 50}}
	advs := []adversary.Spec{
		{},
		{Loss: 0.1},
		{CrashFraction: 0.2, CrashBy: 40},
		{DelayProb: 0.3, MaxDelay: 2},
	}
	for _, f := range families {
		g, pc := profiled(t, f.name, f.n)
		for _, spec := range advs {
			pc.MaxDelay, pc.Faulted = spec.MaxDelay, !spec.IsZero()
			for _, proto := range []string{"ire", "explicit", "walknotify", "floodmax", "allflood"} {
				for _, seed := range []uint64{1, 2, 3} {
					name := fmt.Sprintf("%s/%s-%d/%s/seed=%d", proto, f.name, g.N(), spec.Descriptor(), seed)
					t.Run(name, func(t *testing.T) {
						sameElection(t,
							runCounted(t, proto, g, pc, spec, seed, false),
							runCounted(t, proto, g, pc, spec, seed, true))
					})
				}
			}
		}
	}
}

// TestIdleHintsSkipMostOfIREOnCycle pins the gain on the slow-mixing cell
// the hint is for: without hints IRE on cycle/96 is stepped on every
// node-round, with them on at most 15 % of them (pooled over three seeds;
// what remains is mostly nodes holding walk tokens, which flip coins every
// round).
func TestIdleHintsSkipMostOfIREOnCycle(t *testing.T) {
	g, pc := profiled(t, "cycle", 96)
	var hintedSteps, nodeRounds int64
	for _, seed := range []uint64{1, 2, 3} {
		hinted := runCounted(t, "ire", g, pc, adversary.Spec{}, seed, false)
		plain := runCounted(t, "ire", g, pc, adversary.Spec{}, seed, true)
		sameElection(t, hinted, plain)
		rounds := int64(plain.metrics.Rounds) * int64(g.N())
		if plain.steps != rounds {
			t.Fatalf("seed %d: unhinted run stepped %d of %d node-rounds, want all", seed, plain.steps, rounds)
		}
		t.Logf("seed %d: hinted run stepped on %.1f%% of %d node-rounds", seed, 100*float64(hinted.steps)/float64(rounds), rounds)
		hintedSteps += hinted.steps
		nodeRounds += rounds
	}
	if share := float64(hintedSteps) / float64(nodeRounds); share > 0.15 {
		t.Fatalf("hinted runs stepped on %.1f%% of node-rounds, want <= 15%%", 100*share)
	}
}
