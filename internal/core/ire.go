package core

import (
	"fmt"
	"math"

	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// ireParams holds the resolved protocol parameters of Irrevocable Leader
// Election (Section 4). N, TMix and Phi are the global inputs the paper
// assumes known (linear upper bounds suffice, cf. Theorem 1); the rest
// derive from them and the analysis constants, which default to values
// calibrated on the Table 1 sweeps.
type ireParams struct {
	n             int
	x             int       // walks per candidate
	walkLen       int       // rounds of the random-walk phase
	bcastLen      int       // rounds of the cautious-broadcast phase
	ccLen         int       // rounds of the convergecast phase
	capSize       int       // territory cap x·tmix·Φ (clamped to [2, n])
	cand          Candidacy // ID space and candidate probability (c·ln n)/n
	total         int       // total protocol rounds before halting
	walkStart     int
	ccStart       int
	broadcastOnly bool
	chained       bool // suppress ctx.Halt: a wrapper protocol continues after decide
}

// resolveIRE validates pc's IRE inputs and computes the derived
// parameters: pc.C scales every "c·log n" length, pc.X overrides the
// paper's walk count x = √(n·log n/(Φ·tmix)) and pc.XFactor scales it.
func resolveIRE(pc ProtoConfig) (ireParams, error) {
	var p ireParams
	if pc.N < 2 {
		return p, fmt.Errorf("N must be >= 2, got %d", pc.N)
	}
	if pc.TMix < 1 {
		return p, fmt.Errorf("TMix must be >= 1, got %d", pc.TMix)
	}
	if !(pc.Phi > 0) || pc.Phi > 1 {
		return p, fmt.Errorf("Phi must be in (0,1], got %v", pc.Phi)
	}
	if err := CheckC(pc.C); err != nil {
		return p, err
	}
	if pc.X < 0 || pc.XFactor < 0 || math.IsNaN(pc.XFactor) {
		return p, fmt.Errorf("X and XFactor must be >= 0 (0 selects the default), got %d and %v", pc.X, pc.XFactor)
	}
	p.n = pc.N
	c, ln := CLogN(pc.N, pc.C)
	p.cand = NewCandidacy(pc.N, pc.C)
	p.x = pc.X
	if p.x <= 0 {
		xf := pc.XFactor
		if xf <= 0 {
			xf = 1
		}
		auto := math.Sqrt(float64(p.n) * ln / (pc.Phi * float64(pc.TMix)))
		p.x = int(math.Ceil(xf * auto))
	}
	if p.x < 1 {
		p.x = 1
	}
	phaseLen := int(math.Ceil(c * float64(pc.TMix) * ln))
	if phaseLen < 4 {
		phaseLen = 4
	}
	p.bcastLen = phaseLen
	p.walkLen = phaseLen
	p.ccLen = phaseLen
	p.capSize = int(math.Ceil(float64(p.x) * float64(pc.TMix) * pc.Phi))
	if p.capSize < 2 {
		p.capSize = 2
	}
	if p.capSize > p.n {
		p.capSize = p.n
	}
	// One flush round between phases lets in-flight messages of the
	// previous phase drain before the next phase's sends begin.
	p.walkStart = p.bcastLen + 1
	p.ccStart = p.walkStart + p.walkLen + 1
	p.total = p.ccStart + p.ccLen + 1
	if pc.BroadcastOnly {
		p.broadcastOnly = true
		p.ccStart = p.walkStart
		p.total = p.bcastLen + 2
	}
	return p, nil
}

// ResolveIRE reports the walk count x and the territory cap x·tmix·Φ an
// IRE run of pc resolves to: the metadata the Lemma 1 and Lemma 2
// ablations print beside their measurements.
func ResolveIRE(pc ProtoConfig) (x, capSize int, err error) {
	p, err := resolveIRE(pc)
	return p.x, p.capSize, err
}

// buildIRE is the registry's ire builder. The budget is the protocol
// length plus halt slack and the adversary's jitter bound.
func buildIRE(pc ProtoConfig) (Runner, error) {
	p, err := resolveIRE(pc)
	if err != nil {
		return Runner{}, err
	}
	var arena sim.Arena[IREMachine]
	var counts pool[int]
	return Runner{
		Factory: func(node, degree int, r *rng.RNG) sim.Machine {
			m := arena.New()
			m.setup(&p, counts.carve(degree))
			return m
		},
		Budget: p.total + 4 + pc.MaxDelay,
	}, nil
}

// IREOutput is what one node reports after the protocol halts.
type IREOutput struct {
	// Candidate reports whether this node self-selected as a candidate.
	Candidate bool
	// ID is the node's random ID (drawn from [1, n⁴]).
	ID uint64
	// Leader is the elected flag (Definition 1); whp exactly one node in
	// the network sets it.
	Leader bool
	// MaxIDSeen is the largest walk ID the node observed.
	MaxIDSeen uint64
	// Territory is the final confirmed territory size at a candidate's
	// root (0 for non-candidates).
	Territory int
	// JoinedTerritories counts the broadcast trees this node joined.
	JoinedTerritories int
	// HaltRound is the round at which the node halted.
	HaltRound int
}

// IREMachine is the per-node state machine for Irrevocable Leader Election.
// Its random stream is the context's (Context.RNG).
type IREMachine struct {
	p      *ireParams // shared by every machine of the factory, read-only
	out    IREOutput
	execs  sim.Table[bcastExec] // cautious-broadcast executions by source
	tokens int                  // walk tokens currently held
	counts []int                // stepWalks scratch: tokens leaving per port, zero between rounds

	// ports and kids hold the executions' port lists and child lists. They
	// are the machine's own: Step runs concurrently on the chan and tcp
	// backends, so nothing a step grows may be shared.
	ports pool[int]
	kids  pool[child]

	bcs   sim.Msgs[bcMsg]
	walks sim.Msgs[walkMsg]
	ccs   sim.Msgs[ccMsg]
}

// setup readies a zero machine with its walk counts, one per port.
func (m *IREMachine) setup(p *ireParams, counts []int) {
	m.p, m.counts = p, counts
}

// Output returns the node's protocol outputs; valid after the network
// reports the node halted.
func (m *IREMachine) Output() IREOutput { return m.out }

// Init implements sim.Machine: draw ID and candidacy (Algorithm 1 lines
// 2-3); candidates seed their broadcast execution.
//
// MaxIDSeen tracks the largest *walk* ID observed. Only candidate IDs ride
// walks (the pseudocode's IDmax ← ID at every node would let non-candidate
// IDs beat all candidates and elect nobody, contradicting Lemma 2 and the
// Theorem 1 correctness argument), so non-candidates start at 0.
func (m *IREMachine) Init(ctx *sim.Context) {
	m.out.ID, m.out.Candidate = m.p.cand.Draw(ctx.RNG())
	if m.out.Candidate {
		m.out.MaxIDSeen = m.out.ID
		e, _ := m.execs.Insert(m.out.ID)
		*e = newRootExec(ctx.Degree(), m.p.capSize, &m.ports)
	}
}

// Step implements sim.Machine, dispatching received packets by payload type
// (messages are self-describing, so phase transitions never misroute
// stragglers) and emitting sends for the current phase.
func (m *IREMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	round := ctx.Round()
	for _, pkt := range inbox {
		switch msg := pkt.Payload.(type) {
		case *bcMsg:
			m.handleBroadcast(ctx, int(pkt.Port), *msg)
		case *walkMsg:
			m.tokens += msg.count
			if msg.id > m.out.MaxIDSeen {
				m.out.MaxIDSeen = msg.id
			}
		case *ccMsg:
			if msg.id > m.out.MaxIDSeen {
				m.out.MaxIDSeen = msg.id
			}
		}
	}

	switch {
	case round < m.p.bcastLen:
		for i := 0; i < m.execs.Len(); i++ {
			source, e := m.execs.At(i)
			e.prepare(ctx, source, &m.bcs)
		}
	case round >= m.p.total:
		m.decide(ctx, round)
	case m.p.broadcastOnly:
		// Broadcast-only ablation: idle until the decide round.
	case round >= m.p.walkStart && round < m.p.walkStart+m.p.walkLen:
		m.stepWalks(ctx)
	case round >= m.p.ccStart && round < m.p.ccStart+m.p.ccLen:
		m.stepConvergecast(ctx)
	}
	if m.quiescent(round) {
		ctx.IdleUntil(m.nextPhase(round))
	}
}

// quiescent reports whether, after this round's Step, Steps with empty
// inboxes would do nothing until the next phase starts. Outside the
// broadcast and walk phases that always holds: a convergecast step leaves
// every tree's climb up to date, flush rounds and the broadcast-only tail
// do nothing, and a halted machine is never stepped again.
func (m *IREMachine) quiescent(round int) bool {
	switch {
	case round < m.p.bcastLen:
		for i := 0; i < m.execs.Len(); i++ {
			if _, e := m.execs.At(i); !e.quiescent() {
				return false
			}
		}
	case round >= m.p.walkStart && round < m.p.walkStart+m.p.walkLen:
		return m.tokens == 0
	}
	return true
}

// nextPhase returns the first round after round at which a phase starts
// that may act on an empty inbox: the walk phase, the convergecast, or the
// decide round (the only one left under broadcastOnly).
func (m *IREMachine) nextPhase(round int) int {
	switch {
	case m.p.broadcastOnly || round >= m.p.ccStart:
		return m.p.total
	case round >= m.p.walkStart:
		return m.p.ccStart
	default:
		return m.p.walkStart
	}
}

// handleBroadcast routes a cautious-broadcast message to its execution,
// creating child state on a fresh invite.
func (m *IREMachine) handleBroadcast(ctx *sim.Context, port int, msg bcMsg) {
	e := m.execs.Find(msg.source)
	if e == nil {
		if msg.kind != bcInvite {
			return // straggler for an execution we never joined
		}
		e, _ = m.execs.Insert(msg.source)
		*e = newChildExec(ctx.Degree(), port, m.p.capSize, &m.ports)
		m.out.JoinedTerritories++
		return
	}
	e.handle(port, msg, &m.kids)
}

// stepWalks advances the random-walk phase (Algorithm 5 random-walk): the
// first walk round, in which every live machine steps since its IdleUntil
// promises end there, sprays the candidate's x tokens; every round each
// held token stays with probability 1/2 or moves to a uniform port, and
// moving tokens are batched per port into one (IDmax, count) message.
func (m *IREMachine) stepWalks(ctx *sim.Context) {
	deg, counts, r := ctx.Degree(), m.counts, ctx.RNG()
	if deg == 0 {
		return
	}
	if ctx.Round() == m.p.walkStart && m.out.Candidate {
		for i := 0; i < m.p.x; i++ {
			counts[r.Intn(deg)]++
		}
	}
	if m.tokens > 0 {
		kept := 0
		for i := 0; i < m.tokens; i++ {
			if r.Coin() {
				kept++
				continue
			}
			counts[r.Intn(deg)]++
		}
		m.tokens = kept
	}
	for p, c := range counts {
		if c > 0 {
			ctx.Send(p, walkChannel, m.walks.New(ctx, walkMsg{id: m.out.MaxIDSeen, count: c}))
			counts[p] = 0
		}
	}
}

// stepConvergecast climbs each joined tree with the current maximum walk
// ID, sending only on change (see package doc fidelity note).
func (m *IREMachine) stepConvergecast(ctx *sim.Context) {
	for i := 0; i < m.execs.Len(); i++ {
		source, e := m.execs.At(i)
		if e.parent < 0 || (e.ccSent && e.ccLast >= m.out.MaxIDSeen) {
			continue
		}
		e.ccSent, e.ccLast = true, m.out.MaxIDSeen
		ctx.Send(e.parent, chanOf(source), m.ccs.New(ctx, ccMsg{source: source, id: m.out.MaxIDSeen}))
	}
}

// decide sets the leader flag (Algorithm 1 line 7) and halts, once: a
// decided machine has a positive HaltRound, since total is.
func (m *IREMachine) decide(ctx *sim.Context, round int) {
	if m.out.HaltRound > 0 {
		return
	}
	m.out.Leader = !m.p.broadcastOnly && m.out.Candidate && m.out.MaxIDSeen == m.out.ID
	if m.out.Candidate {
		if e := m.execs.Find(m.out.ID); e != nil {
			m.out.Territory = e.confirmed
		}
	}
	m.out.HaltRound = round
	if !m.p.chained {
		ctx.Halt()
	}
}
