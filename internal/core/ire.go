package core

import (
	"fmt"
	"math"

	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// IREConfig parameterizes the Irrevocable Leader Election protocol
// (Section 4). N, TMix and Phi are the global inputs the paper assumes
// known (linear upper bounds suffice, cf. Theorem 1); the remaining fields
// expose the analysis constants, defaulting to values calibrated on the
// Table 1 sweeps.
type IREConfig struct {
	// N is the (known) network size. Required.
	N int
	// TMix is the lazy-walk mixing time of the network (or an upper
	// bound). Required.
	TMix int
	// Phi is the graph conductance Φ(G) (or a lower bound). Required.
	Phi float64
	// C scales every "c·log n" length in the protocol: candidate rate
	// (C·ln n)/n, walk length C·tmix·log n, broadcast length. Zero
	// selects DefaultIREC.
	C float64
	// X overrides the number of random walks per candidate. Zero selects
	// the paper's x = √(n·log n/(Φ·tmix)), scaled by XFactor.
	X int
	// XFactor scales the automatic x (ignored when X > 0). Zero = 1.
	XFactor float64
	// MaxID overrides the ID space (default n⁴).
	MaxID uint64
	// BroadcastOnly stops after the cautious-broadcast phase (no walks,
	// no convergecast, no leader). Used by the Lemma 1 ablation to
	// measure territory sizes and broadcast cost in isolation.
	BroadcastOnly bool
}

// DefaultIREC is the default analysis constant c. The paper requires only
// "sufficiently large" c; this value is calibrated to reach >95%
// unique-election rates at simulable sizes.
const DefaultIREC = 2.0

// ireParams holds the resolved, derived protocol parameters.
type ireParams struct {
	n             int
	tmix          int
	phi           float64
	c             float64
	x             int     // walks per candidate
	walkLen       int     // rounds of the random-walk phase
	bcastLen      int     // rounds of the cautious-broadcast phase
	ccLen         int     // rounds of the convergecast phase
	capSize       int     // territory cap x·tmix·Φ (clamped to [2, n])
	candProb      float64 // candidate probability (c·ln n)/n
	maxID         uint64  // IDs drawn uniformly from [1, maxID]
	total         int     // total protocol rounds before halting
	walkStart     int
	ccStart       int
	broadcastOnly bool
}

// resolve validates the config and computes derived parameters.
func (cfg IREConfig) resolve() (ireParams, error) {
	var p ireParams
	if cfg.N < 2 {
		return p, fmt.Errorf("core: IREConfig.N must be >= 2, got %d", cfg.N)
	}
	if cfg.TMix < 1 {
		return p, fmt.Errorf("core: IREConfig.TMix must be >= 1, got %d", cfg.TMix)
	}
	if !(cfg.Phi > 0) || cfg.Phi > 1 {
		return p, fmt.Errorf("core: IREConfig.Phi must be in (0,1], got %v", cfg.Phi)
	}
	p.n = cfg.N
	p.tmix = cfg.TMix
	p.phi = cfg.Phi
	p.c = cfg.C
	if p.c <= 0 {
		p.c = DefaultIREC
	}
	ln := math.Log(float64(p.n))
	if ln < 1 {
		ln = 1
	}
	p.candProb = p.c * ln / float64(p.n)
	if p.candProb > 1 {
		p.candProb = 1
	}
	p.maxID = cfg.MaxID
	if p.maxID == 0 {
		nn := uint64(p.n)
		p.maxID = nn * nn * nn * nn
	}
	p.x = cfg.X
	if p.x <= 0 {
		xf := cfg.XFactor
		if xf <= 0 {
			xf = 1
		}
		auto := math.Sqrt(float64(p.n) * ln / (p.phi * float64(p.tmix)))
		p.x = int(math.Ceil(xf * auto))
	}
	if p.x < 1 {
		p.x = 1
	}
	phaseLen := int(math.Ceil(p.c * float64(p.tmix) * ln))
	if phaseLen < 4 {
		phaseLen = 4
	}
	p.bcastLen = phaseLen
	p.walkLen = phaseLen
	p.ccLen = phaseLen
	p.capSize = int(math.Ceil(float64(p.x) * float64(p.tmix) * p.phi))
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
	if cfg.BroadcastOnly {
		p.broadcastOnly = true
		p.walkStart = p.bcastLen + 1
		p.ccStart = p.walkStart
		p.total = p.bcastLen + 2
	}
	return p, nil
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
// Construct with NewIREFactory.
type IREMachine struct {
	p       *ireParams // shared by every machine of the factory, read-only
	r       *rng.RNG
	out     IREOutput
	execs   sim.Table[bcastExec] // cautious-broadcast executions by source
	tokens  int                  // walk tokens currently held
	walked  bool                 // initial token spray done
	counts  []int                // stepWalks scratch: tokens leaving per port, zero between rounds
	halted  bool
	chained bool // suppress ctx.Halt: a wrapper protocol continues after decide

	bcs   sim.Msgs[bcMsg]
	walks sim.Msgs[walkMsg]
	ccs   sim.Msgs[ccMsg]
}

// setup readies a zero machine for a node of the given degree.
func (m *IREMachine) setup(p *ireParams, r *rng.RNG, degree int) {
	m.p, m.r = p, r
	m.counts = make([]int, degree)
}

// NewIREFactory returns a sim.Factory producing IRE machines with the given
// config. The returned error reports invalid configs before any network is
// built.
func NewIREFactory(cfg IREConfig) (sim.Factory, error) {
	p, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	var arena sim.Arena[IREMachine]
	return func(node, degree int, r *rng.RNG) sim.Machine {
		m := arena.New()
		m.setup(&p, r, degree)
		return m
	}, nil
}

// Output returns the node's protocol outputs; valid after the network
// reports the node halted.
func (m *IREMachine) Output() IREOutput { return m.out }

// Params exposes resolved parameters for the harness (walk counts, phase
// lengths); useful when reporting experiment metadata.
func (m *IREMachine) Params() (x, bcastLen, walkLen, capSize, totalRounds int) {
	return m.p.x, m.p.bcastLen, m.p.walkLen, m.p.capSize, m.p.total
}

// Init implements sim.Machine: draw ID and candidacy (Algorithm 1 lines
// 2-3); candidates seed their broadcast execution.
//
// MaxIDSeen tracks the largest *walk* ID observed. Only candidate IDs ride
// walks (the pseudocode's IDmax ← ID at every node would let non-candidate
// IDs beat all candidates and elect nobody, contradicting Lemma 2 and the
// Theorem 1 correctness argument), so non-candidates start at 0.
func (m *IREMachine) Init(ctx *sim.Context) {
	m.out.ID = 1 + m.r.Uint64n(m.p.maxID)
	m.out.Candidate = m.r.Bernoulli(m.p.candProb)
	if m.out.Candidate {
		m.out.MaxIDSeen = m.out.ID
		e, _ := m.execs.Insert(m.out.ID)
		*e = newRootExec(m.out.ID, ctx.Degree(), m.p.capSize)
		if ctx.Tracing() {
			ctx.Trace("candidate", fmt.Sprintf("id=%d", m.out.ID))
		}
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
			m.handleBroadcast(ctx, pkt.Port, *msg)
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
			_, e := m.execs.At(i)
			e.prepare(ctx, m.r, &m.bcs)
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
		*e = newChildExec(msg.source, ctx.Degree(), port, m.p.capSize)
		m.out.JoinedTerritories++
		return
	}
	e.handle(port, msg)
}

// stepWalks advances the random-walk phase (Algorithm 5 random-walk): the
// first walk round sprays the candidate's x tokens; every round each held
// token stays with probability 1/2 or moves to a uniform port, and moving
// tokens are batched per port into one (IDmax, count) message.
func (m *IREMachine) stepWalks(ctx *sim.Context) {
	deg, counts := ctx.Degree(), m.counts
	if deg == 0 {
		return
	}
	if !m.walked {
		m.walked = true
		if m.out.Candidate {
			for i := 0; i < m.p.x; i++ {
				counts[m.r.Intn(deg)]++
			}
		}
	}
	if m.tokens > 0 {
		kept := 0
		for i := 0; i < m.tokens; i++ {
			if m.r.Coin() {
				kept++
				continue
			}
			counts[m.r.Intn(deg)]++
		}
		m.tokens = kept
	}
	for p, c := range counts {
		if c > 0 {
			ctx.Send(p, walkChannel, m.walks.New(walkMsg{id: m.out.MaxIDSeen, count: c}))
			counts[p] = 0
		}
	}
}

// stepConvergecast climbs each joined tree with the current maximum walk
// ID, sending only on change (see package doc fidelity note).
func (m *IREMachine) stepConvergecast(ctx *sim.Context) {
	for i := 0; i < m.execs.Len(); i++ {
		_, e := m.execs.At(i)
		if e.isRoot || e.parent < 0 || (e.ccSent && e.ccLast >= m.out.MaxIDSeen) {
			continue
		}
		e.ccSent, e.ccLast = true, m.out.MaxIDSeen
		ctx.Send(e.parent, chanOf(e.source), m.ccs.New(ccMsg{source: e.source, id: m.out.MaxIDSeen}))
	}
}

// decide sets the leader flag (Algorithm 1 line 7) and halts.
func (m *IREMachine) decide(ctx *sim.Context, round int) {
	if m.halted {
		return
	}
	m.halted = true
	m.out.Leader = !m.p.broadcastOnly && m.out.Candidate && m.out.MaxIDSeen == m.out.ID
	if m.out.Candidate {
		if e := m.execs.Find(m.out.ID); e != nil {
			m.out.Territory = e.confirmed
		}
	}
	if m.out.Leader && ctx.Tracing() {
		ctx.Trace("leader", fmt.Sprintf("id=%d territory=%d", m.out.ID, m.out.Territory))
	}
	m.out.HaltRound = round
	if !m.chained {
		ctx.Halt()
	}
}
