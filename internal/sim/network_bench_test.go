package sim

import (
	"fmt"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// chatter broadcasts one fixed payload per round on `channels` logical
// channels and never halts: the routing + link-accounting hot path with no
// protocol logic. The payload is preallocated and shared (payloads are
// immutable by contract), so the machine itself allocates nothing per
// round and the benchmark isolates the Network's own cost.
type chatter struct {
	channels uint32
	msg      *testMsg
}

func (m *chatter) Init(ctx *Context) {}

func (m *chatter) Step(ctx *Context, inbox []Packet) {
	for c := uint32(0); c < m.channels; c++ {
		for p := 0; p < ctx.Degree(); p++ {
			ctx.Send(p, c, m.msg)
		}
	}
}

func chatterFactory(channels uint32) Factory {
	msg := &testMsg{v: 7, bits: 16}
	return func(node, degree int, r *rng.RNG) Machine {
		return &chatter{channels: channels, msg: msg}
	}
}

// BenchmarkNetworkRound measures one synchronous round of all-node
// broadcast traffic — the simulator's hot path. allocs/op is the headline:
// the flat per-edge link accounting keeps steady-state rounds
// allocation-free, where the old map-keyed accounting allocated a fresh
// aggregation map every round.
func BenchmarkNetworkRound(b *testing.B) {
	tops := []struct {
		name string
		g    *graph.Graph
	}{
		{"torus/n=256", graph.Torus(16, 16)},
		{"complete/n=64", graph.Complete(64)},
		{"cycle/n=1024", graph.Cycle(1024)},
	}
	for _, tp := range tops {
		for _, channels := range []uint32{1, 3} {
			b.Run(fmt.Sprintf("%s/channels=%d", tp.name, channels), func(b *testing.B) {
				nw := New(Config{Graph: tp.g, Seed: 1}, chatterFactory(channels))
				// Warm the reusable buffers so the measurement reflects
				// steady state.
				nw.Run(4)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nw.Step()
				}
			})
		}
	}
}

// relay bounces one token over one link while every other node sleeps:
// node 0 sends it on its port 0 in Init, a node that receives it sends it
// straight back, and every call ends with the promise IdleUntil(1<<30).
type relay struct{ token Payload }

func (m *relay) Init(ctx *Context) {
	if m.token != nil {
		ctx.Send(0, 0, m.token)
	}
	ctx.IdleUntil(1 << 30)
}

func (m *relay) Step(ctx *Context, inbox []Packet) {
	for _, p := range inbox {
		ctx.Send(int(p.Port), p.Channel, p.Payload)
	}
	ctx.IdleUntil(1 << 30)
}

// BenchmarkSparseRound measures a round in which one packet crosses one
// link and every other node sleeps under its IdleUntil promise, at two
// sizes: what a round costs beyond its traffic. A round visits only the
// nodes with something to do, so it grows with the visit set's n/64
// words, not with n.
func BenchmarkSparseRound(b *testing.B) {
	for _, side := range []int{8, 256} {
		g := graph.Torus(side, side)
		b.Run(fmt.Sprintf("torus/n=%d", g.N()), func(b *testing.B) {
			token := &testMsg{v: 1, bits: 8}
			nw := New(Config{Graph: g, Seed: 1}, func(node, degree int, r *rng.RNG) Machine {
				if node == 0 {
					return &relay{token: token}
				}
				return &relay{}
			})
			nw.Run(4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nw.Step()
			}
		})
	}
}

// TestStepAllocationFree pins the hot-path property the flattening PR
// bought: once buffers are warm, a steady-state broadcast round allocates
// nothing — no map for link accounting, no sort scratch, no mailbox growth.
func TestStepAllocationFree(t *testing.T) {
	nw := New(Config{Graph: graph.Torus(8, 8)}, chatterFactory(2))
	nw.Run(8) // warm mailboxes, send buffers, and accounting chains
	avg := testing.AllocsPerRun(50, func() {
		nw.Step()
	})
	if avg > 0.5 {
		t.Fatalf("steady-state Step allocates %.1f objects/round, want 0", avg)
	}
}

// TestMultiChannelAccountingFlat checks the flattened link accounting
// reproduces the CONGEST slot semantics: two channels on one link in one
// round never share a slot, and repeated sends on the same (link, channel)
// coalesce into that channel's bit load.
func TestMultiChannelAccountingFlat(t *testing.T) {
	g := graph.Path(2)
	nw := New(Config{Graph: g, Seed: 1, CongestBits: 8}, func(node, degree int, r *rng.RNG) Machine {
		return &multiChan{node: node}
	})
	nw.Run(3)
	m := nw.Metrics()
	// Node 0 sends, each round: 8 bits on channel 0 (two 4-bit payloads,
	// coalesced -> 1 slot) and 9 bits on channel 1 (-> 2 slots): 3 slots.
	if m.MaxLinkSlots != 3 {
		t.Fatalf("MaxLinkSlots = %d, want 3", m.MaxLinkSlots)
	}
	if m.MaxChannels != 2 {
		t.Fatalf("MaxChannels = %d, want 2", m.MaxChannels)
	}
}

// multiChan exercises same-channel coalescing and cross-channel slot
// separation on a single link.
type multiChan struct{ node int }

func (m *multiChan) Init(ctx *Context) {}

func (m *multiChan) Step(ctx *Context, inbox []Packet) {
	if ctx.Round() >= 2 {
		ctx.Halt()
		return
	}
	if m.node != 0 {
		return
	}
	ctx.Send(0, 0, testMsg{v: 1, bits: 4})
	ctx.Send(0, 0, testMsg{v: 2, bits: 4})
	ctx.Send(0, 1, testMsg{v: 3, bits: 9})
}

// TestNewAllocationBound pins the struct-of-arrays setup: building a
// network is a constant number of allocations regardless of node count
// (plus whatever the factory allocates per machine — zero here, the
// machine is shared; the port tables are the graph's own and cost
// nothing). The generous bound catches a regression back to per-node
// mailbox or rng allocations, which would scale with n and blow far past
// it.
func TestNewAllocationBound(t *testing.T) {
	g := graph.Cycle(4096)
	shared := &chatter{channels: 1, msg: &testMsg{v: 1, bits: 8}}
	factory := func(node, degree int, r *rng.RNG) Machine { return shared }
	allocs := testing.AllocsPerRun(5, func() {
		New(Config{Graph: g, Seed: 1}, factory)
	})
	if allocs > 64 {
		t.Fatalf("sim.New allocated %.0f times for n=4096; want O(1) per network (<= 64)", allocs)
	}
}
