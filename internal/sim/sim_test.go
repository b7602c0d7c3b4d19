package sim

import (
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// testMsg is a payload with an explicit bit size.
type testMsg struct {
	v    int
	bits int
}

func (m testMsg) Bits() int { return m.bits }

// recorder logs everything it receives and sends a fixed payload per round
// on every port until stopRound.
type recorder struct {
	stopRound int
	sendBits  int
	received  [][3]int // (round, port, value)
	rounds    int
	initDeg   int
}

func (m *recorder) Init(ctx *Context) {
	m.initDeg = ctx.Degree()
	ctx.Broadcast(testMsg{v: -1, bits: m.sendBits})
}

func (m *recorder) Step(ctx *Context, inbox []Packet) {
	m.rounds++
	for _, pkt := range inbox {
		m.received = append(m.received, [3]int{ctx.Round(), int(pkt.Port), pkt.Payload.(testMsg).v})
	}
	if ctx.Round() >= m.stopRound {
		ctx.Halt()
		return
	}
	ctx.Broadcast(testMsg{v: ctx.Round(), bits: m.sendBits})
}

func newRecorderNet(g *graph.Graph, stopRound, bits int) *Network {
	return New(Config{Graph: g, Seed: 1}, func(node, degree int, r *rng.RNG) Machine {
		return &recorder{stopRound: stopRound, sendBits: bits}
	})
}

func TestInitSendsArriveAtRoundZero(t *testing.T) {
	g := graph.Path(2)
	nw := newRecorderNet(g, 3, 4)
	nw.Run(1)
	m := nw.Machine(0).(*recorder)
	if len(m.received) != 1 || m.received[0] != [3]int{0, 0, -1} {
		t.Fatalf("round-0 inbox: %v", m.received)
	}
}

func TestSynchronousDelivery(t *testing.T) {
	g := graph.Path(2)
	nw := newRecorderNet(g, 5, 4)
	nw.Run(10)
	m := nw.Machine(1).(*recorder)
	// Node 1 receives: Init payload at round 0, then round r-1's payload
	// at round r.
	want := [][3]int{{0, 0, -1}, {1, 0, 0}, {2, 0, 1}, {3, 0, 2}, {4, 0, 3}, {5, 0, 4}}
	if len(m.received) != len(want) {
		t.Fatalf("received %v want %v", m.received, want)
	}
	for i := range want {
		if m.received[i] != want[i] {
			t.Fatalf("delivery %d: %v want %v", i, m.received[i], want[i])
		}
	}
}

func TestHaltStopsNetwork(t *testing.T) {
	g := graph.Cycle(5)
	nw := newRecorderNet(g, 3, 4)
	ran := nw.Run(100)
	if !nw.AllHalted() {
		t.Fatal("network not halted")
	}
	// Halt at round 3 plus one drain round for in-flight packets.
	if ran > 6 {
		t.Fatalf("ran %d rounds, expected <= 6", ran)
	}
	for v := 0; v < g.N(); v++ {
		if !nw.Halted(v) {
			t.Fatalf("node %d not halted", v)
		}
	}
}

func TestPacketsToHaltedNodesDropped(t *testing.T) {
	g := graph.Path(2)
	// Node 0 halts immediately; node 1 keeps sending.
	nw := New(Config{Graph: g, Seed: 1}, func(node, degree int, r *rng.RNG) Machine {
		stop := 4
		if node == 0 {
			stop = 0
		}
		return &recorder{stopRound: stop, sendBits: 4}
	})
	nw.Run(10)
	m0 := nw.Machine(0).(*recorder)
	// Node 0 saw only the Init payload (round 0) plus nothing after its
	// halt in round 0.
	for _, rec := range m0.received {
		if rec[0] > 0 {
			t.Fatalf("halted node received post-halt packet: %v", rec)
		}
	}
}

func TestInboxSortedByPort(t *testing.T) {
	g := graph.Star(6) // hub has 5 ports
	nw := newRecorderNet(g, 2, 4)
	nw.Run(4)
	hub := nw.Machine(0).(*recorder)
	lastRound, lastPort := -1, -1
	for _, rec := range hub.received {
		if rec[0] != lastRound {
			lastRound, lastPort = rec[0], -1
		}
		if rec[1] < lastPort {
			t.Fatalf("inbox not port-sorted: %v", hub.received)
		}
		lastPort = rec[1]
	}
	if len(hub.received) == 0 {
		t.Fatal("hub received nothing")
	}
}

func TestMessageAndBitAccounting(t *testing.T) {
	g := graph.Path(2)
	nw := newRecorderNet(g, 2, 10)
	nw.Run(5)
	m := nw.Metrics()
	// Sends: Init (2 nodes × 1 port) + rounds 0 and 1 (2 each); the halt
	// round 2 sends nothing. 6 messages of 10 bits.
	if m.Messages != 6 {
		t.Fatalf("messages %d want 6", m.Messages)
	}
	if m.Bits != 60 {
		t.Fatalf("bits %d want 60", m.Bits)
	}
}

func TestCongestChargingSmallPayloads(t *testing.T) {
	g := graph.Path(2)
	nw := newRecorderNet(g, 2, 4) // well under budget
	nw.Run(5)
	m := nw.Metrics()
	if m.MaxLinkSlots != 1 {
		t.Fatalf("maxLinkSlots %d want 1", m.MaxLinkSlots)
	}
	// Every executed round charges one slot; the Init transmission batch
	// charges one more.
	if m.ChargedRounds != int64(m.Rounds)+1 {
		t.Fatalf("charged %d want %d", m.ChargedRounds, m.Rounds+1)
	}
}

func TestCongestChargingOversizedPayload(t *testing.T) {
	g := graph.Path(2)
	budget := 8
	nw := New(Config{Graph: g, Seed: 1, CongestBits: budget},
		func(node, degree int, r *rng.RNG) Machine {
			return &recorder{stopRound: 1, sendBits: 20} // 20 bits -> 3 slots
		})
	nw.Run(4)
	m := nw.Metrics()
	if m.MaxLinkSlots != 3 {
		t.Fatalf("maxLinkSlots %d want 3", m.MaxLinkSlots)
	}
	if m.ChargedRounds <= int64(m.Rounds) {
		t.Fatalf("charged %d should exceed rounds %d", m.ChargedRounds, m.Rounds)
	}
}

// channelSender sends on two channels over the same link each round.
type channelSender struct{}

func (m *channelSender) Init(ctx *Context) {}
func (m *channelSender) Step(ctx *Context, inbox []Packet) {
	if ctx.Round() >= 2 {
		ctx.Halt()
		return
	}
	for p := 0; p < ctx.Degree(); p++ {
		ctx.Send(p, 1, testMsg{v: 1, bits: 2})
		ctx.Send(p, 2, testMsg{v: 2, bits: 2})
	}
}

func TestChannelsNeverShareSlots(t *testing.T) {
	g := graph.Path(2)
	nw := New(Config{Graph: g, Seed: 1, CongestBits: 64},
		func(node, degree int, r *rng.RNG) Machine { return &channelSender{} })
	nw.Run(5)
	m := nw.Metrics()
	// Two tiny payloads would fit one slot, but distinct channels must
	// occupy distinct slots.
	if m.MaxLinkSlots != 2 {
		t.Fatalf("maxLinkSlots %d want 2", m.MaxLinkSlots)
	}
	if m.MaxChannels != 2 {
		t.Fatalf("maxChannels %d want 2", m.MaxChannels)
	}
}

// gossiper exercises randomness: forwards the max value seen, initialized
// from the node RNG.
type gossiper struct {
	val    uint64
	rounds int
}

func (m *gossiper) Init(ctx *Context) {
	m.val = ctx.RNG().Uint64() >> 32
	ctx.Broadcast(testMsg{v: int(m.val), bits: 32})
}

func (m *gossiper) Step(ctx *Context, inbox []Packet) {
	m.rounds++
	changed := false
	for _, pkt := range inbox {
		if v := uint64(pkt.Payload.(testMsg).v); v > m.val {
			m.val = v
			changed = true
		}
	}
	if ctx.Round() >= 30 {
		ctx.Halt()
		return
	}
	if changed || ctx.Round() == 0 {
		ctx.Broadcast(testMsg{v: int(m.val), bits: 32})
	}
}

func runGossip() ([]uint64, Metrics) {
	g := graph.Torus(4, 5)
	nw := New(Config{Graph: g, Seed: 7},
		func(node, degree int, r *rng.RNG) Machine { return &gossiper{} })
	nw.Run(50)
	vals := make([]uint64, g.N())
	for v := 0; v < g.N(); v++ {
		vals[v] = nw.Machine(v).(*gossiper).val
	}
	return vals, nw.Metrics()
}

func TestGossipConverges(t *testing.T) {
	vals, _ := runGossip()
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[0] {
			t.Fatalf("gossip did not converge: node %d has %d, node 0 has %d", i, vals[i], vals[0])
		}
	}
}

func TestRunUntilPredicate(t *testing.T) {
	g := graph.Cycle(4)
	nw := newRecorderNet(g, 100, 4)
	ran := nw.RunUntil(50, func(completed int) bool { return completed >= 7 })
	if ran != 7 {
		t.Fatalf("ran %d want 7", ran)
	}
}

func TestSendValidation(t *testing.T) {
	g := graph.Path(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid port")
		}
	}()
	New(Config{Graph: g, Seed: 1}, func(node, degree int, r *rng.RNG) Machine {
		return &badSender{}
	})
}

type badSender struct{}

func (m *badSender) Init(ctx *Context) { ctx.Send(5, 0, testMsg{bits: 1}) }
func (m *badSender) Step(ctx *Context, inbox []Packet) {
}

func TestNilPayloadPanics(t *testing.T) {
	g := graph.Path(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil payload")
		}
	}()
	New(Config{Graph: g, Seed: 1}, func(node, degree int, r *rng.RNG) Machine {
		return &nilSender{}
	})
}

type nilSender struct{}

func (m *nilSender) Init(ctx *Context) { ctx.Send(0, 0, nil) }
func (m *nilSender) Step(ctx *Context, inbox []Packet) {
}

func TestDefaultCongestBits(t *testing.T) {
	cases := map[int]int{2: 8, 3: 16, 4: 16, 5: 24, 256: 64, 257: 72, 1024: 80}
	for n, want := range cases {
		if got := DefaultCongestBits(n); got != want {
			t.Fatalf("DefaultCongestBits(%d) = %d want %d", n, got, want)
		}
	}
}

func TestAnonymityOfContext(t *testing.T) {
	// The context exposes exactly degree, round, rng, and send/halt —
	// compile-time check that no node-identity accessor exists is implicit
	// in the API; here we verify degree is the node's true degree.
	g := graph.Star(5)
	nw := newRecorderNet(g, 1, 4)
	nw.Run(3)
	if d := nw.Machine(0).(*recorder).initDeg; d != 4 {
		t.Fatalf("hub degree %d want 4", d)
	}
	if d := nw.Machine(1).(*recorder).initDeg; d != 1 {
		t.Fatalf("leaf degree %d want 1", d)
	}
}
