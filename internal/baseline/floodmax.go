package baseline

import (
	"fmt"

	"anonlead/internal/congest"
	"anonlead/internal/core"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// floodParams holds the resolved parameters of the flooding baselines.
type floodParams struct {
	rounds int            // halt round: flood for Diam+1 rounds, +1 slack over the exact eccentricity bound
	cand   core.Candidacy // every node a candidate under AllNodes
}

// resolveFlood validates pc's flooding inputs: the known size N (ID range
// and candidate rate) and diameter bound Diam (the Kutten-class row assumes
// n and D known).
func resolveFlood(pc core.ProtoConfig) (floodParams, error) {
	if pc.N < 2 {
		return floodParams{}, fmt.Errorf("N must be >= 2, got %d", pc.N)
	}
	if pc.Diam < 1 {
		return floodParams{}, fmt.Errorf("Diam must be >= 1, got %d", pc.Diam)
	}
	if err := core.CheckC(pc.C); err != nil {
		return floodParams{}, err
	}
	p := floodParams{rounds: pc.Diam + 2, cand: core.NewCandidacy(pc.N, pc.C)}
	if pc.AllNodes {
		p.cand.Prob = 1
	}
	return p, nil
}

// buildFlood is the registry's floodmax builder (allflood sets
// pc.AllNodes first). The budget is the halt round's count plus slack and
// the adversary's jitter bound.
func buildFlood(pc core.ProtoConfig) (core.Runner, error) {
	p, err := resolveFlood(pc)
	if err != nil {
		return core.Runner{}, err
	}
	var arena sim.Arena[FloodMachine]
	return core.Runner{
		Factory: func(node, degree int, r *rng.RNG) sim.Machine {
			m := arena.New()
			m.p, m.r = p, r
			return m
		},
		Budget: p.rounds + 1 + 2 + pc.MaxDelay,
	}, nil
}

// floodMsg carries the largest candidate ID seen.
type floodMsg struct{ id uint64 }

// Bits returns the CONGEST size of the flooded ID.
func (m floodMsg) Bits() int { return congest.BitLen(m.id) }

// FloodOutput is a node's result after the flood halts.
type FloodOutput struct {
	Candidate bool
	ID        uint64
	MaxSeen   uint64
	Leader    bool
}

// FloodMachine is the per-node FloodMax state machine: forward the maximum
// candidate ID seen (send-on-change), halt after Diam+2 rounds, lead iff
// your own ID survived as the maximum.
type FloodMachine struct {
	p      floodParams
	r      *rng.RNG
	out    FloodOutput
	sent   uint64 // largest ID already broadcast
	halted bool
}

// Output returns the node's result; valid after halting.
func (m *FloodMachine) Output() FloodOutput { return m.out }

// Init implements sim.Machine.
func (m *FloodMachine) Init(ctx *sim.Context) {
	m.out.ID, m.out.Candidate = m.p.cand.Draw(m.r)
	if m.out.Candidate {
		m.out.MaxSeen = m.out.ID
	}
}

// Step implements sim.Machine.
func (m *FloodMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	if m.halted {
		return
	}
	for _, pkt := range inbox {
		if msg, ok := pkt.Payload.(floodMsg); ok && msg.id > m.out.MaxSeen {
			m.out.MaxSeen = msg.id
		}
	}
	if ctx.Round() >= m.p.rounds {
		m.out.Leader = m.out.Candidate && m.out.MaxSeen == m.out.ID
		m.halted = true
		ctx.Halt()
		return
	}
	if m.out.MaxSeen > m.sent {
		m.sent = m.out.MaxSeen
		ctx.Broadcast(floodMsg{id: m.sent})
	}
	// The maximum is forwarded: only a larger one arriving gives this node
	// work before its halt round.
	ctx.IdleUntil(m.p.rounds)
}
