// Benchmarks regenerating every evaluation artifact of the paper
// (Table 1 cells, Figures 1-2, and the ablations X1-X3).
// Each benchmark runs full protocol executions and reports, besides
// wall-clock, the protocol-level costs the paper bounds: messages, bits,
// logical rounds and CONGEST-charged rounds per election.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// This is an external test package (anonlead_test): it drives the
// experiment harness, which itself runs on the public anonlead API, so an
// internal test package would be an import cycle.
package anonlead_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"anonlead"
	"anonlead/internal/adversary"
	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/harness"
	"anonlead/internal/obs"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
)

// benchCell is one family × size benchmark cell.
type benchCell struct {
	family string
	n      int
}

// benchElections runs b.N elections of proto (seeds 1..b.N) on every cell's
// anonlead.NewNetwork(family, n, 1), profiled before the timer starts, and
// reports the protocol-level costs per election plus the success rate.
// opts may read the cell's profile.
func benchElections(b *testing.B, proto string, cells []benchCell, opts func(anonlead.Profile) []anonlead.Option) {
	for _, c := range cells {
		b.Run(fmt.Sprintf("%s/n=%d", c.family, c.n), func(b *testing.B) {
			nw, err := anonlead.NewNetwork(c.family, c.n, 1)
			if err != nil {
				b.Fatal(err)
			}
			prof, err := nw.Profile()
			if err != nil {
				b.Fatal(err)
			}
			var base []anonlead.Option
			if opts != nil {
				base = opts(prof)
			}
			var msgs, bits, rounds, charged, success float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := nw.Run(context.Background(), proto, append(base, anonlead.WithSeed(uint64(i)+1))...)
				if err != nil {
					b.Fatal(err)
				}
				msgs += float64(out.Messages)
				bits += float64(out.Bits)
				rounds += float64(out.Rounds)
				charged += float64(out.ChargedRounds)
				if out.Unique && out.AllKnow {
					success++
				}
			}
			n := float64(b.N)
			b.ReportMetric(msgs/n, "msgs/election")
			b.ReportMetric(bits/n, "bits/election")
			b.ReportMetric(rounds/n, "rounds/election")
			b.ReportMetric(charged/n, "charged/election")
			b.ReportMetric(success/n, "successRate")
		})
	}
}

// BenchmarkTable1IRE measures the paper's Section 4 protocol (Table 1 row
// "n, Φ, tmix — this work": Õ(√(n·tmix/Φ)) msgs, O(tmix·log² n) time).
func BenchmarkTable1IRE(b *testing.B) {
	benchElections(b, anonlead.ProtoIRE, []benchCell{
		{"expander", 64}, {"expander", 128}, {"expander", 256},
		{"hypercube", 64}, {"hypercube", 256},
		{"cycle", 32}, {"cycle", 64},
		{"complete", 64}, {"complete", 128},
		{"torus", 64},
	}, nil)
}

// BenchmarkTable1Gilbert measures the Gilbert-class baseline (Table 1 row
// "n [10]": O(tmix·√n·log^{7/2} n) msgs).
func BenchmarkTable1Gilbert(b *testing.B) {
	benchElections(b, anonlead.ProtoWalkNotify, []benchCell{
		{"expander", 64}, {"expander", 128}, {"expander", 256},
		{"cycle", 32}, {"cycle", 64},
		{"complete", 64}, {"complete", 128},
	}, nil)
}

// BenchmarkTable1Flood measures the Kutten-class flooding baseline
// (Table 1 rows "n, D [16]": O(m) msgs, O(D) time).
func BenchmarkTable1Flood(b *testing.B) {
	benchElections(b, anonlead.ProtoFloodMax, []benchCell{
		{"expander", 64}, {"expander", 256},
		{"cycle", 64}, {"complete", 64}, {"complete", 256},
	}, nil)
}

// BenchmarkTable1Revocable measures the Section 5.2 protocol at the
// faithful Theorem 3 schedule on tiny complete graphs (Table 1 revocable
// rows (*)). The polynomial schedules bound what is simulable.
func BenchmarkTable1Revocable(b *testing.B) {
	benchElections(b, anonlead.ProtoRevocable, []benchCell{{"complete", 3}, {"complete", 4}, {"complete", 6}},
		func(prof anonlead.Profile) []anonlead.Option {
			return []anonlead.Option{anonlead.WithEpsilon(0.5), anonlead.WithIsoperimetric(prof.Isoperimetric)}
		})
}

// BenchmarkFigure1PumpingWheel measures one wheel execution of the
// impossibility experiment (Figure 1 witness construction): the known-n
// protocol told n=8 running on a wheel with the given witness count.
func BenchmarkFigure1PumpingWheel(b *testing.B) {
	for _, witnesses := range []int{1, 2} {
		b.Run(fmt.Sprintf("witnesses=%d", witnesses), func(b *testing.B) {
			leaders := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				points, err := harness.SplitBrainExperiment(8, []int{witnesses}, 1, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				leaders += int(points[0].MeanLeaders)
			}
			b.ReportMetric(float64(leaders)/float64(b.N), "leaders/wheel")
		})
	}
}

// BenchmarkFigure2SplitBrain measures the Figure 2 series point: the
// multi-leader probability estimate over a small trial batch.
func BenchmarkFigure2SplitBrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := harness.SplitBrainExperiment(8, []int{2}, 3, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[0].MultiLeader)/float64(points[0].Trials), "P(multi)")
		b.ReportMetric(points[0].MeanLeaders, "E[leaders]")
	}
}

// BenchmarkAblationCautious measures cautious broadcast in isolation
// (X1, paper Lemma 1).
func BenchmarkAblationCautious(b *testing.B) {
	for _, x := range []int{4, 16} {
		b.Run(fmt.Sprintf("x=%d", x), func(b *testing.B) {
			w := harness.Workload{Family: "expander", N: 128}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				points, _, err := harness.AblationCautious(w, []int{x}, 1, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(points[0].MeanTerritory, "territory")
				b.ReportMetric(points[0].Messages, "msgs")
			}
		})
	}
}

// BenchmarkAblationWalks measures the full protocol at sub- and
// super-critical walk counts (X2, paper Lemma 2).
func BenchmarkAblationWalks(b *testing.B) {
	for _, factor := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("factor=%g", factor), func(b *testing.B) {
			benchElections(b, anonlead.ProtoIRE, []benchCell{{"expander", 128}},
				func(anonlead.Profile) []anonlead.Option {
					return []anonlead.Option{anonlead.WithProtoConfig(core.ProtoConfig{XFactor: factor})}
				})
		})
	}
}

// sweepSpecs is the orchestrator benchmark matrix: a cross-protocol,
// cross-family slice of the Table 1 workload, including a diameter-2
// clique-of-cliques cell and a knowledge-ablation cell.
func sweepSpecs() []harness.CellSpec {
	opts := harness.TrialOpts{Trials: 4, Seed: 1}
	return []harness.CellSpec{
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "expander", N: 64}, Opts: opts},
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "cycle", N: 32}, Opts: opts},
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "diam2", N: 33}, Opts: opts},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "complete", N: 32}, Opts: opts},
		{Protocol: harness.ProtoWalkNotify, Workload: harness.Workload{Family: "expander", N: 64}, Opts: opts},
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "expander", N: 64},
			Opts: harness.TrialOpts{Trials: 4, Seed: 1, PresumedN: 128}},
	}
}

// BenchmarkHarnessSweep measures the experiment orchestrator end to end:
// the same sweep matrix on one worker and fanned out over GOMAXPROCS
// (identical cells; the ratio is the orchestration speedup). The measured
// record of sweep speed is `go run ./bench`'s sweep-gate workload.
func BenchmarkHarnessSweep(b *testing.B) {
	specs := sweepSpecs()
	for _, bc := range []struct {
		name string
		orch harness.Orchestrator
	}{{"workers=1", harness.Orchestrator{Workers: 1}}, {"workers=GOMAXPROCS", harness.Orchestrator{}}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bc.orch.RunSweep(specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// obsPayload/obsChatter replicate the sim package's internal chatter
// benchmark machine from outside: every node broadcasts one shared fixed
// payload per round and never halts, so steady-state Step cost is pure
// simulator round loop with no protocol logic.
type obsPayload struct{ bits int }

func (p *obsPayload) Bits() int { return p.bits }

type obsChatter struct{ msg *obsPayload }

func (m *obsChatter) Init(ctx *sim.Context) {}

func (m *obsChatter) Step(ctx *sim.Context, inbox []sim.Packet) { ctx.Broadcast(m.msg) }

func obsChatterFactory() sim.Factory {
	msg := &obsPayload{bits: 16}
	return func(node, degree int, r *rng.RNG) sim.Machine { return &obsChatter{msg: msg} }
}

// roundProfileObserver is the harness's observer adapter shape: cumulative
// sim metrics in, per-round deltas into an obs.RoundProfile.
func roundProfileObserver(rp *obs.RoundProfile) func(sim.RoundInfo) {
	o := rp.RoundObserver()
	return func(ri sim.RoundInfo) { o(ri.Metrics.Messages, int64(ri.Halted)) }
}

// TestRoundLoopZeroAllocObservabilityDisabled is the telemetry regression
// guard: linking the telemetry subsystem must not cost the round loop its
// steady-state zero-allocation property when observability is off (the
// default). It also pins the disabled obs entry point itself — Span is
// what the harness calls around every phase of every cell.
func TestRoundLoopZeroAllocObservabilityDisabled(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("observability enabled at test start; guard must measure the default-off path")
	}
	nw := sim.New(sim.Config{Graph: graph.Torus(8, 8)}, obsChatterFactory())
	nw.Run(8) // warm mailboxes, send buffers, accounting chains
	if avg := testing.AllocsPerRun(50, func() { nw.Step() }); avg > 0.5 {
		t.Fatalf("steady-state round allocates %.1f objects with observability disabled, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { obs.Span("trials")() }); avg > 0 {
		t.Fatalf("disabled obs.Span allocates %.1f objects, want 0", avg)
	}
}

// TestRoundLoopZeroAllocWithStaticAdversary extends the zero-allocation
// guard across the fault-injection path: a static (non-adaptive)
// adversary — per-packet loss decisions plus a crash schedule — must not
// cost the warmed round loop a single allocation. The adversary's random
// decisions run on value-typed reseeded RNG chains precisely so this
// holds; the traffic buffer ObserveTraffic reads is one slice per run.
func TestRoundLoopZeroAllocWithStaticAdversary(t *testing.T) {
	g := graph.Torus(8, 8)
	adv, err := adversary.Spec{Loss: 0.2, CrashSchedule: map[int]int{4: 3, 12: 9}}.Build(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	nw := sim.New(sim.Config{Graph: g, Adversary: adv}, obsChatterFactory())
	nw.Run(16) // warm past both scheduled crashes
	if avg := testing.AllocsPerRun(50, func() { nw.Step() }); avg > 0.5 {
		t.Fatalf("steady-state round allocates %.1f objects with a static adversary, want 0", avg)
	}
	if nw.Metrics().Dropped == 0 {
		t.Fatal("loss adversary dropped nothing; the guard measured a dead fault path")
	}
}

// TestRoundLoopObservedAllocBound bounds the enabled-path overhead: with a
// round-profile observer attached (the heaviest per-round consumer the
// harness installs), a warmed round must still allocate nothing — the
// profile's buckets are fixed arrays and the observer adapter passes
// structs by value.
func TestRoundLoopObservedAllocBound(t *testing.T) {
	rp := &obs.RoundProfile{}
	nw := sim.New(sim.Config{
		Graph:    graph.Torus(8, 8),
		Observer: roundProfileObserver(rp),
	}, obsChatterFactory())
	nw.Run(8)
	if avg := testing.AllocsPerRun(50, func() { nw.Step() }); avg > 0.5 {
		t.Fatalf("observed round allocates %.1f objects/round, want 0", avg)
	}
	if rp.Rounds == 0 || rp.TotalMsgs == 0 {
		t.Fatalf("observer fed no data: %+v", rp)
	}
}

// BenchmarkNetworkRoundObserved measures the absolute round-loop overhead
// of the round-profile observer against the sim package's bare
// BenchmarkNetworkRound numbers.
func BenchmarkNetworkRoundObserved(b *testing.B) {
	rp := &obs.RoundProfile{}
	nw := sim.New(sim.Config{
		Graph:    graph.Torus(16, 16),
		Observer: roundProfileObserver(rp),
	}, obsChatterFactory())
	nw.Run(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step()
	}
}

// BenchmarkAblationDiffusion measures the exact diffusion detector sweep
// (X3, paper Lemmas 5-8).
func BenchmarkAblationDiffusion(b *testing.B) {
	w := harness.Workload{Family: "cycle", N: 12}
	for i := 0; i < b.N; i++ {
		points, err := harness.AblationDiffusion(w, 0.5, 32, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.MaxPot, "maxPotential")
	}
}

// electionCells are the protocol-layer speed cells: the three protocols
// whose Step does real work, each on the topology the host benchmark
// (bench/) runs it on, FloodMax on an expander, IRE on the slow-mixing
// cycle, where most node-rounds have nothing to do, and Revocable on the
// smallest complete graph, 793k rounds of 6 messages, where only set-up
// and the first rounds' message rings allocate.
var electionCells = []struct {
	proto     string
	family    string
	n         int
	maxAllocs float64 // allocations per message the guard tolerates: about 1.5× the measurement
}{
	{"ire", "expander", 256, 0.08},
	{"explicit", "expander", 256, 0.085},
	{"walknotify", "expander", 64, 0.17},
	{"floodmax", "expander", 256, 0.25},
	{"ire", "cycle", 96, 0.0037},
	{"revocable", "complete", 3, 3.8e-6},
}

// TestWireRunAllocsPerMessage is the wire backend's allocation guard, the
// counterpart of TestElectionAllocsPerMessage: warmed walknotify elections
// on expander-64 over tcp through Network.Run, each of which resets the
// cluster the warm-up connected. Its bound is about 1.5× the measured
// 1.31; a run that connects its own cluster, dialling and handshaking
// every edge and allocating every driver again, reads 3.96 and fails it.
func TestWireRunAllocsPerMessage(t *testing.T) {
	const maxAllocs = 2.0
	nw, err := anonlead.NewNetwork("expander", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	var msgs int64
	run := func() {
		out, err := nw.Run(context.Background(), anonlead.ProtoWalkNotify,
			anonlead.WithSeed(1), anonlead.WithTransport(anonlead.TransportTCP))
		if err != nil {
			t.Fatal(err)
		}
		msgs = out.Messages
	}
	run()
	allocs := testing.AllocsPerRun(5, run)
	if got := allocs / float64(msgs); got > maxAllocs {
		t.Errorf("walknotify on expander-64 over tcp: %.3g allocs/message (%.0f allocations, %d messages), want <= %g",
			got, allocs, msgs, maxAllocs)
	} else {
		t.Logf("walknotify on expander-64 over tcp: %.3g allocs/message (%.0f allocations, %d messages)", got, allocs, msgs)
	}
}

// electionSetup resolves a registered protocol on a family member of n
// nodes into its graph and a builder of Runners. Like the public Run, every
// election builds its own Runner: a factory's arena belongs to one network.
func electionSetup(tb testing.TB, proto, family string, n int) (*graph.Graph, func() core.Runner) {
	tb.Helper()
	g, err := graph.Seeded(family, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	prof, err := spectral.ProfileGraph(g, 1)
	if err != nil {
		tb.Fatal(err)
	}
	entry, ok := core.Lookup(proto)
	if !ok {
		tb.Fatalf("protocol %q not registered", proto)
	}
	pc := core.ProtoConfig{N: n, TMix: prof.MixingTime, Phi: prof.Conductance, Diam: prof.Diameter}
	return g, func() core.Runner {
		runner, err := entry.Build(pc)
		if err != nil {
			tb.Fatal(err)
		}
		return runner
	}
}

// cellElections runs a cell's whole elections on one sim.Network, reset
// for each, as Network.Run resets the simulator it keeps.
type cellElections struct {
	g     *graph.Graph
	build func() core.Runner
	nw    *sim.Network // nil until the first election
}

// run runs one whole election — Build, Reset (sim.New the first time),
// the rounds runPlan says, Close — and returns its message count.
func (c *cellElections) run(seed uint64) int64 {
	runner := c.build()
	cfg := sim.Config{Graph: c.g, Seed: seed}
	if c.nw == nil {
		c.nw = sim.New(cfg, runner.Factory)
	} else {
		c.nw.Reset(cfg, runner.Factory)
	}
	defer c.nw.Close()
	runPlan(c.nw, c.nw, runner)
	return c.nw.Metrics().Messages
}

// runPlan runs nw as Network.Run runs a runner: to its round budget, or,
// for an open-ended runner, until Converged holds on view at a CheckEvery
// boundary, under MaxRounds. view is what Converged reads the machines
// through.
func runPlan(nw *sim.Network, view sim.View, runner core.Runner) {
	if runner.Budget > 0 {
		nw.Run(runner.Budget)
		return
	}
	every := max(runner.CheckEvery, 1)
	nw.RunUntil(runner.MaxRounds, func(completed int) bool {
		return completed%every == 0 && runner.Converged(view)
	})
}

// stepCounter counts the Step calls the network makes on a machine.
type stepCounter struct {
	sim.Machine
	steps *int64
}

func (m stepCounter) Step(ctx *sim.Context, inbox []sim.Packet) {
	*m.steps++
	m.Machine.Step(ctx, inbox)
}

// countedView shows Converged the machines inside the stepCounters.
type countedView struct{ *sim.Network }

func (v countedView) Machine(i int) sim.Machine { return v.Network.Machine(i).(stepCounter).Machine }

// stepsPerMessage runs one election of seed with every machine wrapped in
// a stepCounter and returns Step calls per message sent.
func stepsPerMessage(g *graph.Graph, build func() core.Runner, seed uint64) float64 {
	runner := build()
	var steps int64
	nw := sim.New(sim.Config{Graph: g, Seed: seed}, func(node, degree int, r *rng.RNG) sim.Machine {
		return stepCounter{Machine: runner.Factory(node, degree, r), steps: &steps}
	})
	runPlan(nw, countedView{nw}, runner)
	return float64(steps) / float64(nw.Metrics().Messages)
}

// BenchmarkElection is the protocol layer's development loop: whole
// elections per protocol with the figures the host benchmark gates on, in
// seconds (`go test -run '^$' -bench Election -benchtime 20x`) rather than
// a 16 s pass of `go run ./bench`. steps/message comes from one extra
// election outside the timed loop, so the timed machines run unwrapped.
func BenchmarkElection(b *testing.B) {
	for _, c := range electionCells {
		b.Run(fmt.Sprintf("%s/%s-%d", c.proto, c.family, c.n), func(b *testing.B) {
			g, build := electionSetup(b, c.proto, c.family, c.n)
			cell := cellElections{g: g, build: build}
			var before, after runtime.MemStats
			var msgs int64
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msgs += cell.run(uint64(i) + 1)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/message")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs), "allocs/message")
			b.ReportMetric(stepsPerMessage(g, build, 1), "steps/message")
		})
	}
}

// TestElectionAllocsPerMessage is the protocol layer's allocation guard,
// the counterpart of the TestRoundLoopZeroAlloc* guards on the simulator:
// a whole election, set-up included, must stay under a fraction of an
// allocation per message. Its elections reset one simulator, as
// Network.Run does, so what they allocate is the protocol's. Per-node tables are sorted slices, Step scratch
// is machine-owned, execution state is carved from per-machine pools and
// messages come out of per-machine rings; a map, a per-round slice, a
// boxed value payload or a message memory that is never reused on the
// Step path fails this.
func TestElectionAllocsPerMessage(t *testing.T) {
	for _, c := range electionCells {
		g, build := electionSetup(t, c.proto, c.family, c.n)
		cell := cellElections{g: g, build: build}
		msgs := cell.run(1)
		allocs := testing.AllocsPerRun(3, func() { cell.run(1) })
		if got := allocs / float64(msgs); got > c.maxAllocs {
			t.Errorf("%s on %s-%d: %.3g allocs/message (%.0f allocations, %d messages), want <= %g",
				c.proto, c.family, c.n, got, allocs, msgs, c.maxAllocs)
		} else {
			t.Logf("%s on %s-%d: %.3g allocs/message (%.0f allocations, %d messages)", c.proto, c.family, c.n, got, allocs, msgs)
		}
	}
}
