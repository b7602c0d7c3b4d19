package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"anonlead"
	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/transport"
)

// cell is one election configuration: a protocol on a topology, on the
// simulator or over a real transport.
type cell struct {
	family    string
	n         int
	proto     string
	transport anonlead.Transport
}

func (c cell) String() string {
	return fmt.Sprintf("%s on %s/%d (%s)", c.proto, c.family, c.n, c.transport)
}

// electionSeed derives election i's seed from the run seed: a pure function
// of (workload, seed, i), so a run's inputs depend on nothing else.
func electionSeed(workload string, seed uint64, i int) uint64 {
	return rng.New(seed).SplitString("bench:" + workload).DeriveSeed(uint64(i))
}

// election is what one finished election reports to the benchmark: the
// model's exact counts, the elected leaders, and the host cost of the call.
type election struct {
	leaders  []int
	metrics  anonlead.Metrics
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	checkErr error // why the election counts as failed (nil: correct)
}

// digest hashes the election's leaders and exact model counts. Two
// executions of one seed must produce the same digest on every backend,
// scheduler and pass.
func (e election) digest() uint64 {
	f := fnv.New64a()
	m := e.metrics
	fmt.Fprintf(f, "%v|%d|%d|%d|%d|%d", e.leaders, m.Rounds, m.ChargedRounds, m.Messages, m.Bits, m.MaxLinkSlots)
	return f.Sum64()
}

// foldDigest chains unit digest d onto the model digest h of the units
// before it.
func foldDigest(h, d uint64) uint64 {
	f := fnv.New64a()
	fmt.Fprintf(f, "%d|%d", h, d)
	return f.Sum64()
}

// runPublic runs one election through the public API and checks it: no
// error and exactly one leader.
func runPublic(nw *anonlead.Network, c cell, seed uint64, opts ...anonlead.Option) election {
	opts = append(opts, anonlead.WithSeed(seed), anonlead.WithTransport(c.transport))
	before := readAllocs()
	start := time.Now()
	out, err := nw.Run(context.Background(), c.proto, opts...)
	e := election{wall: time.Since(start)}
	e.mallocs, e.bytes = before.since()
	e.leaders, e.metrics = out.Leaders, out.Metrics
	switch {
	case err != nil:
		e.checkErr = err
	case !out.Unique:
		e.checkErr = fmt.Errorf("%d leaders elected", len(out.Leaders))
	}
	return e
}

// timedMachine wraps one node's protocol machine and accumulates the time
// spent inside it. It forwards every call unchanged, so the run it times is
// the run the untraced pass executes.
type timedMachine struct {
	inner sim.Machine
	busy  time.Duration
	calls int64
	// sample is the first payload delivered at or after call sampleAt, kept
	// so the frame codec can be timed on the workload's own bodies.
	sampleAt int64
	sample   sim.Payload
}

func (t *timedMachine) Init(ctx *sim.Context) {
	start := time.Now()
	t.inner.Init(ctx)
	t.busy += time.Since(start)
}

func (t *timedMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	if t.sample == nil && t.calls >= t.sampleAt && len(inbox) > 0 {
		t.sample = inbox[0].Payload
	}
	start := time.Now()
	t.inner.Step(ctx, inbox)
	t.busy += time.Since(start)
	t.calls++
}

// timedMachines is the per-election slab of wrappers, one per node, so that
// wrapping costs one allocation and concurrent backends (one goroutine per
// node) never share an accumulator.
type timedMachines []timedMachine

func (ts timedMachines) factory(inner sim.Factory) sim.Factory {
	return func(node, degree int, r *rng.RNG) sim.Machine {
		ts[node].inner = inner(node, degree, r)
		ts[node].sampleAt = int64(node % 61) // spread the samples over the early rounds
		return &ts[node]
	}
}

func (ts timedMachines) totals() (busy time.Duration, calls int64) {
	for i := range ts {
		busy += ts[i].busy
		calls += ts[i].calls
	}
	return busy, calls
}

// unwrapped adapts a backend's view for the protocol's Converged and
// Collect hooks, which type-assert the concrete machine.
type unwrapped struct{ sim.View }

func (u unwrapped) Machine(v int) sim.Machine { return u.View.Machine(v).(*timedMachine).inner }

// layers accumulates the per-layer measurements of the traced elections.
type layers struct {
	elections int
	wall      time.Duration // Σ traced election wall
	messages  int64
	rounds    int64

	buildUS, collectUS     []float64
	stepBusy               time.Duration
	stepCalls              int64
	converged              time.Duration
	newMS, newMB, newAlloc []float64
	roundSelfNS            []float64     // per-election median of Step() minus machine time
	runSelf                time.Duration // Σ run-loop span minus its children
	runAllocs              uint64

	// real-transport elections only
	connectMS, closeMS []float64
	roundUS            []float64
	wireRunAllocs      uint64
	payloads           []sim.Payload // sampled for the frame codec figures
}

// profiled is the part of a spectral profile that protocols consume.
type profiled struct {
	tmix int
	phi  float64
	diam int
}

// protoConfig resolves the profiled inputs exactly as Network.Run does for
// a run with default options.
func protoConfig(entry core.Entry, n int, prof profiled) core.ProtoConfig {
	pc := core.ProtoConfig{TrueN: n, N: n}
	if entry.Needs&core.NeedTMix != 0 {
		pc.TMix = prof.tmix
	}
	if entry.Needs&core.NeedPhi != 0 {
		pc.Phi = prof.phi
	}
	if entry.Needs&core.NeedDiam != 0 {
		pc.Diam = prof.diam
	}
	return pc
}

// runLayered runs the election Network.Run would run for (c, seed), calling
// each layer's public functions itself so that each call can be timed from
// outside: Build, sim.New or NewCluster, the round loop, Collect.
func runLayered(rec *recorder, ly *layers, g *graph.Graph, prof profiled, c cell, seed uint64, id int) (election, error) {
	entry, ok := core.Lookup(c.proto)
	if !ok {
		return election{}, fmt.Errorf("bench: unknown protocol %q", c.proto)
	}
	before := readAllocs()
	top := rec.begin("election", id)

	sp := rec.begin("core.build", id)
	runner, err := entry.Build(protoConfig(entry, g.N(), prof))
	ly.buildUS = append(ly.buildUS, us(rec.end(sp)))
	if err != nil {
		rec.end(top)
		return election{}, fmt.Errorf("bench: build %s: %w", c.proto, err)
	}
	machines := make(timedMachines, g.N())
	factory := machines.factory(runner.Factory)

	var e election
	if c.transport == anonlead.TransportSim {
		err = runSim(rec, ly, g, runner, machines, factory, seed, id, &e)
	} else {
		err = runWire(rec, ly, g, runner, entry.Wire, machines, factory, c.transport, seed, id, &e)
	}
	e.wall = rec.end(top)
	e.mallocs, e.bytes = before.since()
	if err != nil {
		return e, err
	}
	busy, calls := machines.totals()
	ly.elections++
	ly.wall += e.wall
	ly.messages += e.metrics.Messages
	ly.rounds += int64(e.metrics.Rounds)
	ly.stepBusy += busy
	ly.stepCalls += calls
	if len(e.leaders) != 1 {
		e.checkErr = fmt.Errorf("%d leaders elected", len(e.leaders))
	}
	return e, nil
}

// runSim is the simulator half of runLayered: sim.New, then the loop of
// RunContext / RunUntilContext written out around Network.Step.
func runSim(rec *recorder, ly *layers, g *graph.Graph, runner core.Runner, machines timedMachines, factory sim.Factory, seed uint64, id int, e *election) error {
	sp := rec.begin("sim.new", id)
	before := readAllocs()
	net := sim.New(sim.Config{Graph: g, Seed: seed}, factory)
	mallocs, bytes := before.since()
	initBusy, _ := machines.totals()
	rec.child("core.step", sp, initBusy)
	ly.newMS = append(ly.newMS, ms(rec.end(sp)))
	ly.newMB = append(ly.newMB, float64(bytes)/(1<<20))
	ly.newAlloc = append(ly.newAlloc, float64(mallocs))
	defer net.Close()
	view := unwrapped{net}

	budget, every := runner.Budget, 0
	if budget == 0 {
		budget, every = runner.MaxRounds, max(runner.CheckEvery, 1)
	}
	sp = rec.begin("sim.run", id)
	before = readAllocs()
	var roundSelf []float64
	var converged time.Duration
	busyBefore := initBusy
	executed := 0
	for executed < budget {
		start := time.Now()
		more := net.Step()
		step := time.Since(start)
		if !more {
			break
		}
		executed++
		busy, _ := machines.totals()
		roundSelf = append(roundSelf, float64(step-(busy-busyBefore)))
		busyBefore = busy
		if every > 0 && executed%every == 0 {
			start = time.Now()
			done := runner.Converged(view)
			converged += time.Since(start)
			if done {
				break
			}
		}
	}
	runAllocs, _ := before.since()
	rec.child("core.step", sp, busyBefore-initBusy)
	rec.child("core.converged", sp, converged)
	rec.end(sp)
	ly.runSelf += rec.selfOf(sp)
	ly.roundSelfNS = append(ly.roundSelfNS, median(roundSelf))
	ly.converged += converged
	ly.runAllocs += runAllocs

	e.metrics = publicMetrics(net.Metrics())
	if every == 0 && !net.AllHalted() {
		return fmt.Errorf("bench: election %d did not halt within %d rounds", id, budget)
	}
	if every > 0 && !runner.Converged(view) {
		return fmt.Errorf("bench: election %d did not stabilize within %d rounds", id, executed)
	}
	sp = rec.begin("core.collect", id)
	e.leaders = runner.Collect(view).Leaders
	ly.collectUS = append(ly.collectUS, us(rec.end(sp)))
	return nil
}

// runWire is the real-transport half of runLayered: NewCluster, RunContext
// with an observer that timestamps every round, Close.
func runWire(rec *recorder, ly *layers, g *graph.Graph, runner core.Runner, codec sim.WireCodec, machines timedMachines, factory sim.Factory, tr anonlead.Transport, seed uint64, id int, e *election) error {
	if runner.Budget == 0 {
		return fmt.Errorf("bench: open-ended protocols are not traced over a transport")
	}
	var backend transport.Transport
	switch tr {
	case anonlead.TransportChan:
		backend = transport.ChanTransport{}
	case anonlead.TransportPipe:
		backend = transport.PipeTransport{}
	default:
		backend = transport.TCPTransport{}
	}
	ctx := context.Background()
	var stamps []time.Duration
	observer := func(sim.RoundInfo) { stamps = append(stamps, time.Since(rec.origin)) }

	sp := rec.begin("transport.connect", id)
	cluster, err := transport.NewCluster(ctx, transport.Config{Graph: g, Seed: seed, Transport: backend, Observer: observer}, factory, codec)
	ly.connectMS = append(ly.connectMS, ms(rec.end(sp)))
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	view := unwrapped{cluster}

	sp = rec.begin("transport.run", id)
	before := readAllocs()
	runStart := time.Since(rec.origin)
	_, err = cluster.RunContext(ctx, runner.Budget)
	runAllocs, _ := before.since()
	prev := runStart
	for _, at := range stamps {
		rec.add("transport.round", sp, prev, at)
		ly.roundUS = append(ly.roundUS, us(at-prev))
		prev = at
	}
	rec.end(sp)
	ly.wireRunAllocs += runAllocs
	e.metrics = publicMetrics(cluster.Metrics())
	for i := range machines {
		if p := machines[i].sample; p != nil {
			ly.payloads = append(ly.payloads, p)
		}
	}
	if err == nil && !cluster.AllHalted() {
		err = fmt.Errorf("election %d did not halt within %d rounds", id, runner.Budget)
	}
	if err == nil {
		sp = rec.begin("core.collect", id)
		e.leaders = runner.Collect(view).Leaders
		ly.collectUS = append(ly.collectUS, us(rec.end(sp)))
	}
	sp = rec.begin("transport.close", id)
	cluster.Close()
	ly.closeMS = append(ly.closeMS, ms(rec.end(sp)))
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// publicMetrics mirrors the simulator's accounting into the public type
// the untraced pass reads, so both passes digest the same fields.
func publicMetrics(m sim.Metrics) anonlead.Metrics {
	return anonlead.Metrics{
		Rounds: m.Rounds, ChargedRounds: m.ChargedRounds, Messages: m.Messages, Bits: m.Bits,
		CongestBits: m.CongestBits, MaxLinkSlots: m.MaxLinkSlots, MaxChannels: m.MaxChannels,
		Dropped: m.Dropped, Delayed: m.Delayed, Crashed: m.Crashes,
	}
}
