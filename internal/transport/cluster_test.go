package transport_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/transport"
)

// testMsg is a fixed-size payload for the parity machines.
type testMsg uint64

func (testMsg) Bits() int { return 64 }

type testCodec struct{}

func (testCodec) AppendPayload(dst []byte, p sim.Payload) ([]byte, error) {
	v, ok := p.(testMsg)
	if !ok {
		return nil, fmt.Errorf("testCodec: unknown payload %T", p)
	}
	return binary.BigEndian.AppendUint64(dst, uint64(v)), nil
}

func (testCodec) DecodePayload(src []byte) (sim.Payload, error) {
	if len(src) != 8 {
		return nil, fmt.Errorf("testCodec: payload is %d bytes, want 8", len(src))
	}
	return testMsg(binary.BigEndian.Uint64(src)), nil
}

// floodMachine floods the maximum random ID seen for a fixed number of
// rounds, cycling logical channels to exercise slot accounting, and sends
// in the very round it halts — the case where the simulator counts an
// extra drain round iff some of those last packets land on a live node.
type floodMachine struct {
	id, best   uint64
	haltRound  int
	lastInSize int
}

func newFloodFactory(haltRound int) sim.Factory {
	return func(node, degree int, r *rng.RNG) sim.Machine {
		id := r.Uint64()
		return &floodMachine{id: id, best: id, haltRound: haltRound}
	}
}

func (m *floodMachine) Init(ctx *sim.Context) {
	ctx.Broadcast(testMsg(m.best))
}

func (m *floodMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	m.lastInSize = len(inbox)
	for _, pkt := range inbox {
		if v := uint64(pkt.Payload.(testMsg)); v > m.best {
			m.best = v
		}
	}
	for p := 0; p < ctx.Degree(); p++ {
		ctx.Send(p, uint32(ctx.Round()%3), testMsg(m.best))
	}
	if ctx.Round() >= m.haltRound {
		ctx.Halt()
	}
}

// staggerMachine halts at different rounds on different nodes (derived
// from each node's private stream), so late senders target already-halted
// receivers — the in-flight/drop folding the coordinator must share.
type staggerMachine struct {
	best      uint64
	haltRound int
}

func newStaggerFactory(maxHalt int) sim.Factory {
	return func(node, degree int, r *rng.RNG) sim.Machine {
		id := r.Uint64()
		return &staggerMachine{best: id, haltRound: 1 + int(id%uint64(maxHalt))}
	}
}

func (m *staggerMachine) Init(ctx *sim.Context) { ctx.Broadcast(testMsg(m.best)) }

func (m *staggerMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	for _, pkt := range inbox {
		if v := uint64(pkt.Payload.(testMsg)); v > m.best {
			m.best = v
		}
	}
	ctx.Broadcast(testMsg(m.best))
	if ctx.Round() >= m.haltRound {
		ctx.Halt()
	}
}

type snapshot struct {
	rounds  int
	metrics sim.Metrics
	halted  []bool
	best    []uint64
}

func bestOf(m sim.Machine) uint64 {
	switch mm := m.(type) {
	case *floodMachine:
		return mm.best
	case *staggerMachine:
		return mm.best
	}
	return 0
}

func runSim(t *testing.T, g *graph.Graph, seed uint64, factory sim.Factory, budget int) snapshot {
	t.Helper()
	net := sim.New(sim.Config{Graph: g, Seed: seed}, factory)
	rounds, err := net.RunContext(context.Background(), budget)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	if !net.AllHalted() {
		t.Fatalf("sim did not halt within %d rounds", budget)
	}
	return snap(net, rounds)
}

func runCluster(t *testing.T, tr transport.Transport, g *graph.Graph, seed uint64, factory sim.Factory, budget int) snapshot {
	t.Helper()
	c, err := transport.NewCluster(context.Background(), transport.Config{
		Graph: g, Seed: seed, Transport: tr,
	}, factory, testCodec{})
	if err != nil {
		t.Fatalf("cluster %s: %v", tr.Name(), err)
	}
	defer c.Close()
	rounds, err := c.RunContext(context.Background(), budget)
	if err != nil {
		t.Fatalf("cluster %s run: %v", tr.Name(), err)
	}
	if !c.AllHalted() {
		t.Fatalf("cluster %s did not halt within %d rounds", tr.Name(), budget)
	}
	return snap(c, rounds)
}

func snap(rt transport.Runtime, rounds int) snapshot {
	n := rt.N()
	s := snapshot{rounds: rounds, metrics: rt.Metrics(), halted: make([]bool, n), best: make([]uint64, n)}
	for v := 0; v < n; v++ {
		s.halted[v] = rt.Halted(v)
		s.best[v] = bestOf(rt.Machine(v))
	}
	return s
}

func backends() []transport.Transport {
	return []transport.Transport{
		transport.ChanTransport{},
		transport.PipeTransport{},
		transport.TCPTransport{},
	}
}

// TestClusterMatchesSimulator is the core determinism contract: every real
// backend must reproduce the simulator's machine states, halt pattern, and
// full cost accounting bit-for-bit for the same seed.
func TestClusterMatchesSimulator(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle12":   graph.Cycle(12),
		"complete6": graph.Complete(6),
		"grid3x4":   graph.Grid(3, 4),
	}
	for gname, g := range graphs {
		for _, seed := range []uint64{1, 77} {
			want := runSim(t, g, seed, newFloodFactory(g.N()), 4*g.N())
			for _, tr := range backends() {
				name := fmt.Sprintf("%s/%s/seed%d", gname, tr.Name(), seed)
				t.Run(name, func(t *testing.T) {
					got := runCluster(t, tr, g, seed, newFloodFactory(g.N()), 4*g.N())
					requireSnapshotsEqual(t, want, got)
				})
			}
		}
	}
}

// TestClusterDrainRoundParity pins the subtle stop-rule case: staggered
// halts make the final senders target halted peers, where the simulator
// either runs one extra drain round (live receiver) or stops immediately
// (all drops). The barrier must agree either way.
func TestClusterDrainRoundParity(t *testing.T) {
	g := graph.Cycle(9)
	for _, seed := range []uint64{3, 11, 29} {
		want := runSim(t, g, seed, newStaggerFactory(5), 100)
		for _, tr := range backends() {
			t.Run(fmt.Sprintf("%s/seed%d", tr.Name(), seed), func(t *testing.T) {
				got := runCluster(t, tr, g, seed, newStaggerFactory(5), 100)
				requireSnapshotsEqual(t, want, got)
			})
		}
	}
}

func requireSnapshotsEqual(t *testing.T, want, got snapshot) {
	t.Helper()
	if got.rounds != want.rounds {
		t.Errorf("rounds: cluster %d, sim %d", got.rounds, want.rounds)
	}
	if !reflect.DeepEqual(got.metrics, want.metrics) {
		t.Errorf("metrics diverge:\n  cluster %+v\n  sim     %+v", got.metrics, want.metrics)
	}
	if !reflect.DeepEqual(got.halted, want.halted) {
		t.Errorf("halt pattern diverges:\n  cluster %v\n  sim     %v", got.halted, want.halted)
	}
	if !reflect.DeepEqual(got.best, want.best) {
		t.Errorf("machine states diverge:\n  cluster %v\n  sim     %v", got.best, want.best)
	}
}

// TestClusterRunUntilContext exercises the open-ended run path with a
// convergence predicate evaluated at the quiescent barrier.
func TestClusterRunUntilContext(t *testing.T) {
	g := graph.Complete(5)
	c, err := transport.NewCluster(context.Background(), transport.Config{Graph: g, Seed: 9},
		newFloodFactory(50), testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rounds, err := c.RunUntilContext(context.Background(), 1000, func(completed int) bool {
		// Converged when every machine agrees on the maximum.
		first := bestOf(c.Machine(0))
		for v := 1; v < c.N(); v++ {
			if bestOf(c.Machine(v)) != first {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 || rounds > 3 {
		t.Fatalf("complete graph should agree after round 1, ran %d", rounds)
	}
}

// TestClusterContextCancel checks that cancelling mid-run returns promptly
// with the context error and Close leaves no goroutines wedged.
func TestClusterContextCancel(t *testing.T) {
	g := graph.Cycle(8)
	c, err := transport.NewCluster(context.Background(), transport.Config{Graph: g, Seed: 1},
		newFloodFactory(1<<30), testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := c.RunContext(ctx, 10); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := c.RunContext(ctx, 1000); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestClusterObserver checks the observer stream matches the simulator's
// on every backend: same rounds, same halted count and cumulative metrics
// per round. Seed 11 of the staggered-halt run ends in a drain round (all
// nine nodes halted after round 5, round 6 still runs), so that round is
// pinned too.
func TestClusterObserver(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		seed    uint64
		factory sim.Factory
	}{
		{"flood/grid2x3", graph.Grid(2, 3), 5, newFloodFactory(6)},
		{"stagger/cycle9", graph.Cycle(9), 11, newStaggerFactory(5)},
	}
	collect := func(run func(obsv func(sim.RoundInfo))) []sim.RoundInfo {
		var events []sim.RoundInfo
		run(func(ri sim.RoundInfo) { events = append(events, ri) })
		return events
	}
	for _, tc := range cases {
		simEvents := collect(func(obsv func(sim.RoundInfo)) {
			net := sim.New(sim.Config{Graph: tc.g, Seed: tc.seed, Observer: obsv}, tc.factory)
			if _, err := net.RunContext(context.Background(), 100); err != nil {
				t.Fatal(err)
			}
		})
		for _, tr := range backends() {
			t.Run(tc.name+"/"+tr.Name(), func(t *testing.T) {
				cluEvents := collect(func(obsv func(sim.RoundInfo)) {
					c, err := transport.NewCluster(context.Background(), transport.Config{
						Graph: tc.g, Seed: tc.seed, Transport: tr, Observer: obsv,
					}, tc.factory, testCodec{})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					if _, err := c.RunContext(context.Background(), 100); err != nil {
						t.Fatal(err)
					}
				})
				if !reflect.DeepEqual(simEvents, cluEvents) {
					t.Fatalf("observer streams diverge:\n  sim     %+v\n  cluster %+v", simEvents, cluEvents)
				}
			})
		}
	}
}

// TestHandshakeTokensDeterministic pins the seed-derived handshake secrets:
// same seed same tokens, different seed different tokens, one per edge.
func TestHandshakeTokensDeterministic(t *testing.T) {
	g := graph.Grid(3, 3)
	a := transport.HandshakeTokens(g, 42)
	b := transport.HandshakeTokens(g, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("tokens differ for identical seeds")
	}
	if len(a) != g.M() {
		t.Fatalf("%d tokens for %d edges", len(a), g.M())
	}
	c := transport.HandshakeTokens(g, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("tokens identical across different seeds")
	}
}
