package core

import (
	"anonlead/internal/congest"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// announceMsg floods the elected leader's ID; depth lets receivers record
// their BFS distance.
type announceMsg struct {
	id    uint64
	depth int
}

// Bits returns the CONGEST size of the announcement.
func (m announceMsg) Bits() int {
	return congest.BitLen(m.id) + congest.BitLen(uint64(m.depth))
}

// ExplicitOutput reports one node's result after explicit election.
type ExplicitOutput struct {
	// IRE carries the underlying implicit-election outputs.
	IRE IREOutput
	// KnowsLeader reports whether the announcement reached this node.
	KnowsLeader bool
	// LeaderID is the announced leader ID (0 if unreached or no leader).
	LeaderID uint64
	// ParentPort is the port toward the leader in the announcement BFS
	// tree (-1 at the leader itself and at unreached nodes).
	ParentPort int
	// Depth is the node's hop distance from the leader in the tree.
	Depth int
}

// ExplicitMachine chains the implicit IRE machine with an announcement
// flood. After the implicit decide round, the leader broadcasts its ID;
// every node adopts the first announcement it hears (recording the arrival
// port as its tree parent), forwards once, and halts when the announcement
// window closes.
type ExplicitMachine struct {
	inner     IREMachine
	announceN int
	out       ExplicitOutput
	forwarded bool
	halted    bool
}

// buildExplicit is the registry's explicit builder: the Section 4 implicit
// protocol followed by a leader announcement flood that simultaneously
// builds a leader-rooted BFS spanning tree. The paper notes (Section 3)
// that explicit LE, Broadcast and tree construction follow from implicit
// LE at an extra O(m) messages and O(D) time; this is that extension. The
// announcement window is n rounds (the diameter is unknown to anonymous
// nodes; n always suffices).
func buildExplicit(pc ProtoConfig) (Runner, error) {
	p, err := resolveIRE(pc)
	if err != nil {
		return Runner{}, err
	}
	p.chained = true
	var arena sim.Arena[ExplicitMachine]
	var counts pool[int]
	return Runner{
		Factory: func(node, degree int, r *rng.RNG) sim.Machine {
			m := arena.New()
			m.inner.setup(&p, counts.carve(degree))
			m.announceN = p.n
			m.out.ParentPort = -1
			return m
		},
		Budget:  p.total + p.n + 2 + 4 + pc.MaxDelay,
		Collect: collectExplicit,
	}, nil
}

// collectExplicit reads the announcement tree beside the leaders.
func collectExplicit(nw sim.View) Outcome {
	n := nw.N()
	out := Outcome{
		AllKnow: true,
		Parents: make([]int, n),
		Depths:  make([]int, n),
	}
	for v := 0; v < n; v++ {
		o := nw.Machine(v).(*ExplicitMachine).Output()
		out.Depths[v] = o.Depth
		if o.ParentPort >= 0 {
			out.Parents[v] = nw.Graph().Neighbor(v, o.ParentPort)
		} else {
			out.Parents[v] = -1
		}
		if nw.Crashed(v) {
			continue // only survivors claim or learn leadership
		}
		if o.IRE.Leader {
			out.Leaders = append(out.Leaders, v)
			out.LeaderID = o.IRE.ID
		}
		if !o.KnowsLeader {
			out.AllKnow = false
		}
	}
	return out
}

// Output returns the node's results; valid after halting.
func (m *ExplicitMachine) Output() ExplicitOutput {
	m.out.IRE = m.inner.Output()
	return m.out
}

// Init implements sim.Machine.
func (m *ExplicitMachine) Init(ctx *sim.Context) { m.inner.Init(ctx) }

// Step implements sim.Machine.
func (m *ExplicitMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	if m.halted {
		return
	}
	round := ctx.Round()
	total := m.inner.p.total
	haltRound := total + m.announceN + 1
	if round <= total {
		// The inner machine's IdleUntil hints all end by total, so they hold
		// for this machine too.
		m.inner.Step(ctx, inbox)
		if round == total {
			if m.inner.out.Leader {
				// The freshly decided leader opens the announcement flood.
				m.out.KnowsLeader = true
				m.out.LeaderID = m.inner.out.ID
				m.out.Depth = 0
				ctx.Broadcast(announceMsg{id: m.out.LeaderID, depth: 0})
				m.forwarded = true
			}
			ctx.IdleUntil(haltRound)
		}
		return
	}
	for _, pkt := range inbox {
		msg, ok := pkt.Payload.(announceMsg)
		if !ok {
			continue
		}
		if !m.out.KnowsLeader || msg.id > m.out.LeaderID {
			// First announcement (or a higher ID in the rare multi-leader
			// failure): adopt, record the tree parent, re-forward.
			m.out.KnowsLeader = true
			m.out.LeaderID = msg.id
			m.out.ParentPort = int(pkt.Port)
			m.out.Depth = msg.depth + 1
			m.forwarded = false
		}
	}
	if m.out.KnowsLeader && !m.forwarded {
		m.forwarded = true
		ctx.Broadcast(announceMsg{id: m.out.LeaderID, depth: m.out.Depth})
	}
	if round >= haltRound {
		m.halted = true
		ctx.Halt()
		return
	}
	// From the decide round on, every announcement this node owes leaves in
	// the step that learns it: only an arriving one gives it work before it
	// halts.
	ctx.IdleUntil(haltRound)
}
