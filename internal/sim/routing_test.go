package sim

import (
	"testing"
	"testing/quick"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// scatter sends one uniquely tagged payload on a random port each round
// and records everything received, letting the property test reconstruct
// ground truth delivery.
type scatter struct {
	node     int
	sent     [][3]int // (round, port, tag)
	received [][3]int // (round, port, tag)
	rounds   int
}

func (m *scatter) Init(ctx *Context) {}

func (m *scatter) Step(ctx *Context, inbox []Packet) {
	for _, pkt := range inbox {
		m.received = append(m.received, [3]int{ctx.Round(), int(pkt.Port), pkt.Payload.(testMsg).v})
	}
	if ctx.Round() >= m.rounds {
		ctx.Halt()
		return
	}
	port := ctx.RNG().Intn(ctx.Degree())
	tag := m.node<<16 | ctx.Round()
	ctx.Send(port, 0, testMsg{v: tag, bits: 24})
	m.sent = append(m.sent, [3]int{ctx.Round(), port, tag})
}

// TestRoutingProperty checks, over random connected graphs, that every
// sent packet is delivered exactly once, to the correct neighbor, on the
// correct reverse port, in the next round.
func TestRoutingProperty(t *testing.T) {
	root := rng.New(42)
	if err := quick.Check(func(seed uint64) bool {
		r := root.Split(seed)
		g, err := graph.GNPConnected(12, 0.4, r)
		if err != nil {
			return true
		}
		nw := New(Config{Graph: g, Seed: seed}, func(node, degree int, rr *rng.RNG) Machine {
			return &scatter{node: node, rounds: 6}
		})
		nw.Run(10)

		// Ground truth: for each send (round t, node v, port p, tag),
		// expect exactly one reception at neighbor w = g.Neighbor(v,p),
		// round t+1, port = g.PortTo(w, v).
		type delivery struct{ round, node, port, tag int }
		expected := make(map[delivery]int)
		for v := 0; v < g.N(); v++ {
			m := nw.Machine(v).(*scatter)
			for _, s := range m.sent {
				w := g.Neighbor(v, s[1])
				expected[delivery{s[0] + 1, w, g.PortTo(w, v), s[2]}]++
			}
		}
		got := make(map[delivery]int)
		for v := 0; v < g.N(); v++ {
			m := nw.Machine(v).(*scatter)
			for _, rec := range m.received {
				got[delivery{rec[0], v, rec[1], rec[2]}]++
			}
		}
		if len(expected) != len(got) {
			return false
		}
		for k, n := range expected {
			if got[k] != n {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// counter logs the round of every Init and Step call it gets and halts
// once it has stepped round haltAt.
type counter struct {
	haltAt int
	inits  []int
	steps  []int
}

func (m *counter) Init(ctx *Context) { m.inits = append(m.inits, ctx.Round()) }
func (m *counter) Step(ctx *Context, inbox []Packet) {
	m.steps = append(m.steps, ctx.Round())
	if ctx.Round() >= m.haltAt {
		ctx.Halt()
	}
}

// TestContextTraceRecording runs the counting machine on a 4×4 torus and
// checks the trace of Context rounds each node saw: Init once per node at
// round -1, and Step on exactly rounds 0…haltAt and never after Halt,
// while the nodes that halt later keep the network running.
func TestContextTraceRecording(t *testing.T) {
	g := graph.Torus(4, 4)
	nw := New(Config{Graph: g, Seed: 1},
		func(node, degree int, r *rng.RNG) Machine { return &counter{haltAt: node % 5} })
	if got := nw.Run(10); got != 5 {
		t.Fatalf("ran %d rounds, want 5", got)
	}
	for v := 0; v < g.N(); v++ {
		m := nw.Machine(v).(*counter)
		if len(m.inits) != 1 || m.inits[0] != -1 {
			t.Fatalf("node %d Init rounds %v, want [-1]", v, m.inits)
		}
		if len(m.steps) != m.haltAt+1 {
			t.Fatalf("node %d Step rounds %v, want 0…%d", v, m.steps, m.haltAt)
		}
		for i, r := range m.steps {
			if r != i {
				t.Fatalf("node %d Step rounds %v, want 0…%d", v, m.steps, m.haltAt)
			}
		}
	}
}
