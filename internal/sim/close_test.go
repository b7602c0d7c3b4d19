//go:build go1.24

package sim

import (
	"runtime"
	"testing"
	"weak"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// selfMsg is a payload that lives inside its sender, as a sim.Msgs
// message does, so a packet left anywhere in a network pins the machine
// that sent it.
type selfMsg struct{ bits int }

func (m *selfMsg) Bits() int { return m.bits }

// selfSender broadcasts its own payload every round until its stop round;
// with a negative one it halts in Init. An extra selfSender also sends a
// second packet on port 0 in Init, which overflows the receiver's mailbox
// window into a heap-grown one and the network's send buffer into a larger
// one.
type selfSender struct {
	msg   selfMsg
	stop  int
	extra bool
}

func (m *selfSender) Init(ctx *Context) {
	ctx.Broadcast(&m.msg)
	if m.extra {
		ctx.Send(0, 1, &m.msg)
	}
	if m.stop < 0 {
		ctx.Halt()
	}
}

func (m *selfSender) Step(ctx *Context, inbox []Packet) {
	if ctx.Round() >= m.stop {
		ctx.Halt()
		return
	}
	ctx.Broadcast(&m.msg)
}

// runTracked resets nw for a run of selfSenders — with delayed packets, a
// crash, and an observer and an adversary that both reach the machines —
// runs it to the end, closes it and returns weak pointers to every machine
// the run built. Node 0 halts in Init, before the last node's extra send
// grows the send buffer, so it never steps with the grown one.
func runTracked(t *testing.T, nw *Network, seed uint64) []weak.Pointer[selfSender] {
	t.Helper()
	var machines []*selfSender
	factory := func(node, degree int, r *rng.RNG) Machine {
		m := &selfSender{msg: selfMsg{bits: 8}, stop: 3 + node%4, extra: node == nw.N()-1}
		if node == 0 {
			m.stop = -1
		}
		machines = append(machines, m)
		return m
	}
	adv := &testAdv{
		crash: func(v int) int {
			if v == 5 {
				return 2
			}
			return -1
		},
		fate:     func(round, from, port, to int) (bool, int) { return false, (round + from + port + len(machines)) % 3 },
		maxDelay: 2,
	}
	observer := func(RoundInfo) { _ = machines[0].stop }
	nw.Reset(Config{Graph: nw.Graph(), Seed: seed, Adversary: adv, Observer: observer}, factory)
	nw.Run(50)
	if !nw.Done() || nw.Metrics().Delayed == 0 || nw.Metrics().Crashes != 1 {
		t.Fatalf("tracked run did not exercise the delay ring and a crash: %+v", nw.Metrics())
	}
	nw.Close()
	ptrs := make([]weak.Pointer[selfSender], len(machines))
	for v, m := range machines {
		ptrs[v] = weak.Make(m)
	}
	return ptrs
}

// TestClosedNetworkHoldsNoMachine: once a run is closed, the network keeps
// nothing that reaches its machines — not a payload left in a mailbox, the
// send buffer or the delay ring, nor the observer or the adversary — so a
// network kept for the next run lets the garbage collector free the last
// one. The network is then reset and closed again, which must hold too.
// The weak package is Go 1.24's, so older toolchains build without this
// file.
func TestClosedNetworkHoldsNoMachine(t *testing.T) {
	nw := New(Config{Graph: graph.Torus(6, 6)}, func(node, degree int, r *rng.RNG) Machine {
		return &selfSender{stop: 0}
	})
	for run := uint64(0); run < 2; run++ {
		ptrs := runTracked(t, nw, run)
		runtime.GC()
		for v, p := range ptrs {
			if p.Value() != nil {
				t.Fatalf("run %d: machine %d still reachable after Close", run, v)
			}
		}
		if nw.Machine(0) != nil {
			t.Fatalf("run %d: closed network still returns a machine", run)
		}
	}
	runtime.KeepAlive(nw)
}
