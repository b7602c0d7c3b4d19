package core

import (
	"fmt"
	"math"

	"anonlead/internal/congest"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// RevocableConfig parameterizes Blind Leader Election with Certificates via
// Diffusion with Thresholds (Section 5.2, Algorithms 6-7). The protocol
// uses NO network knowledge; the config only fixes the analysis parameters
// ε and ξ, optionally a known isoperimetric lower bound (Theorem 3 vs
// Corollary 1), and simulation calibration multipliers.
type RevocableConfig struct {
	// Epsilon is the paper's ε ∈ (0, 1]. Zero selects 0.5 (smaller ε
	// lowers the polynomial degree of every phase length, which is what
	// makes faithful runs simulable; any value in (0,1] satisfies the
	// analysis).
	Epsilon float64
	// Xi is the paper's error parameter ξ ∈ (0, 1) in f(k). Zero selects
	// 0.5.
	Xi float64
	// Isoperimetric, when positive, is a known lower bound on i(G) and
	// selects the Theorem 3 diffusion length; zero selects the fully
	// blind Corollary 1 length (i(G) ≥ 2/k proxy, using only the running
	// estimate).
	Isoperimetric float64
	// FMult and RMult scale f(k) (certification repetitions) and r(k)
	// (diffusion rounds) for calibrated runs at sizes where the faithful
	// polynomials are not simulable. 1.0 (the zero-value default) is
	// faithful.
	FMult float64
	RMult float64
	// MaxK caps the estimate ladder as a simulation safety net (the
	// protocol itself never stops). Zero means no cap.
	MaxK uint64
}

func (cfg RevocableConfig) resolve() (revParams, error) {
	p := revParams{
		eps:   cfg.Epsilon,
		xi:    cfg.Xi,
		iso:   cfg.Isoperimetric,
		fMult: cfg.FMult,
		rMult: cfg.RMult,
		maxK:  cfg.MaxK,
	}
	if p.eps == 0 {
		p.eps = 0.5
	}
	if p.eps < 0 || p.eps > 1 {
		return p, fmt.Errorf("core: RevocableConfig.Epsilon must be in (0,1], got %v", cfg.Epsilon)
	}
	if p.xi == 0 {
		p.xi = 0.5
	}
	if p.xi <= 0 || p.xi >= 1 {
		return p, fmt.Errorf("core: RevocableConfig.Xi must be in (0,1), got %v", cfg.Xi)
	}
	if p.iso < 0 {
		return p, fmt.Errorf("core: RevocableConfig.Isoperimetric must be >= 0, got %v", cfg.Isoperimetric)
	}
	if p.fMult == 0 {
		p.fMult = 1
	}
	if p.rMult == 0 {
		p.rMult = 1
	}
	if p.fMult < 0 || p.rMult < 0 {
		return p, fmt.Errorf("core: multipliers must be positive")
	}
	return p, nil
}

type revParams struct {
	eps, xi      float64
	iso          float64
	fMult, rMult float64
	maxK         uint64
}

// kPow returns k^{1+ε}.
func (p revParams) kPow(k uint64) float64 {
	return math.Pow(float64(k), 1+p.eps)
}

// fOf returns f(k) = (4√2/(√2−1)²)·ln(k^{1+ε}/ξ), the number of
// certification repetitions (Algorithm 6 header), scaled by FMult.
func (p revParams) fOf(k uint64) int {
	const lead = 4 * math.Sqrt2 // 4√2
	denom := (math.Sqrt2 - 1) * (math.Sqrt2 - 1)
	f := (lead / denom) * math.Log(p.kPow(k)/p.xi)
	f *= p.fMult
	if f < 1 {
		return 1
	}
	return int(math.Ceil(f))
}

// pOf returns p(k) = ln2 / k^{1+ε}, the white-node probability.
func (p revParams) pOf(k uint64) float64 {
	return math.Ln2 / p.kPow(k)
}

// tauOf returns τ(k) = 1 − 1/(k^{1+ε} − 1), the potential alarm threshold.
func (p revParams) tauOf(k uint64) float64 {
	kp := p.kPow(k)
	if kp <= 1 {
		return 0
	}
	return 1 - 1/(kp-1)
}

// rOf returns the diffusion length r(k): Theorem 3's
// (8k^{2(1+ε)}/i(G)²)·ln(k^{2(1+ε)}) + k^{1+ε}·ln(2k) when i(G) is known,
// else Corollary 1's blind 2k^{2(2+ε)}·ln(k^{2(1+ε)}) + k^{1+ε}·ln(2k);
// scaled by RMult.
func (p revParams) rOf(k uint64) int {
	kp := p.kPow(k)
	logTerm := math.Log(kp * kp)
	if logTerm < 1 {
		logTerm = 1
	}
	var main float64
	if p.iso > 0 {
		main = 8 * kp * kp / (p.iso * p.iso) * logTerm
	} else {
		main = 2 * math.Pow(float64(k), 2*(2+p.eps)) * logTerm
	}
	tail := kp * math.Log(2*float64(k))
	r := p.rMult*main + tail
	if r < 1 {
		return 1
	}
	if r > 1<<40 {
		return 1 << 40
	}
	return int(math.Ceil(r))
}

// dissOf returns the dissemination length k^{1+ε} (Algorithm 7 line 14).
func (p revParams) dissOf(k uint64) int {
	d := p.kPow(k)
	if d < 1 {
		return 1
	}
	return int(math.Ceil(d))
}

// idRangeOf returns the ID sample range k^{4(1+ε)}·log₂⁴(4k) (Algorithm 6
// line 15), clamped to avoid uint64 overflow.
func (p revParams) idRangeOf(k uint64) uint64 {
	l := math.Log2(4 * float64(k))
	r := math.Pow(float64(k), 4*(1+p.eps)) * l * l * l * l
	if r < 2 {
		return 2
	}
	if r > math.MaxUint64/4 {
		return math.MaxUint64 / 4
	}
	return uint64(r)
}

// revPhase is the machine's position inside one certification iteration.
type revPhase uint8

const (
	phaseDiffusion revPhase = iota + 1
	phaseDissemination
)

// avgMsg is the diffusion-phase broadcast ⟨Φ, q, c, idldr, Kldr⟩
// (Algorithm 7 line 6). potBits is the bit length of the potential after
// the sender's diffusion steps: potentials gain log₂(2k^{1+ε}) bits per
// averaging step and the paper transmits them bit by bit; the simulator
// charges the growing size through Bits.
type avgMsg struct {
	phi     float64
	potBits int
	q       bool // true = probing, false = low
	c       bool // white node exists
	idldr   uint64
	kldr    uint64
}

// Bits returns the CONGEST size: potential bits + 2 flag bits + leader
// certificate.
func (m avgMsg) Bits() int {
	b := m.potBits + 2
	if m.kldr > 0 {
		b += congest.BitLen(m.idldr) + congest.BitLen(m.kldr)
	} else {
		b++ // nil certificate marker
	}
	return b
}

// dissMsg is the dissemination-phase broadcast ⟨q, c, idldr, Kldr⟩
// (Algorithm 7 line 15).
type dissMsg struct {
	q     bool
	c     bool
	idldr uint64
	kldr  uint64
}

// Bits returns the CONGEST size.
func (m dissMsg) Bits() int {
	b := 2
	if m.kldr > 0 {
		b += congest.BitLen(m.idldr) + congest.BitLen(m.kldr)
	} else {
		b++
	}
	return b
}

// RevocableOutput is a snapshot of one node's externally visible state.
type RevocableOutput struct {
	// Chosen reports whether the node has chosen its ID (final, once set).
	Chosen bool
	// ID and K are the node's chosen ID and the estimate certificate used
	// to choose it (Algorithm 6 line 15).
	ID uint64
	K  uint64
	// LeaderID and LeaderK identify the leader from this node's
	// perspective: the smallest ID among the largest certificates seen.
	LeaderID uint64
	LeaderK  uint64
	// Leader is the (revocable) leadership flag (Algorithm 6 line 17).
	Leader bool
	// EstimateK is the current network-size estimate.
	EstimateK uint64
	// Iterations counts completed certification iterations in the current
	// estimate.
	Iterations int
	// Potential and Probing expose the diffusion state for tests and
	// debugging (Algorithm 7's Φ and q).
	Potential float64
	Probing   bool
}

// RevocableMachine runs Algorithms 6-7 as a round-driven state machine.
// All nodes advance the (k, iteration, phase) schedule in lockstep because
// every phase length is a deterministic function of k alone.
type RevocableMachine struct {
	p revParams
	r *rng.RNG

	// Algorithm 6 state.
	k       uint64
	id      uint64 // 0 = nil
	bigK    uint64
	idldr   uint64
	kldr    uint64
	leader  bool
	status  []bool // status[i]: iteration i stayed probing
	empty   []bool // empty[i]: no white node detected in iteration i
	iter    int    // current certification iteration (0-based)
	fK      int    // f(k) for the current k
	rK      int    // r(k) for the current k
	dissK   int    // dissemination length for the current k
	tau     float64
	share   float64 // 1/(2k^{1+ε})
	degCap  float64 // k^{1+ε} degree alarm level
	idRange uint64

	// Algorithm 7 per-iteration state.
	phase      revPhase
	phaseRound int
	phi        float64
	potBits    int
	q          bool // probing
	c          bool // white exists
	frozen     bool // maxK cap reached: hold state, stop sending
}

// NewRevocableFactory returns a sim.Factory for the revocable protocol.
func NewRevocableFactory(cfg RevocableConfig) (sim.Factory, error) {
	p, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	return func(node, degree int, r *rng.RNG) sim.Machine {
		return &RevocableMachine{p: p, r: r}
	}, nil
}

// Output returns the node's current externally visible state. Revocable
// LE never halts, so this is valid at any time.
func (m *RevocableMachine) Output() RevocableOutput {
	return RevocableOutput{
		Chosen:     m.id != 0,
		ID:         m.id,
		K:          m.bigK,
		LeaderID:   m.idldr,
		LeaderK:    m.kldr,
		Leader:     m.leader,
		EstimateK:  m.k,
		Iterations: m.iter,
		Potential:  m.phi,
		Probing:    m.q,
	}
}

// Init implements sim.Machine: enter the first estimate k=2 and start its
// first certification iteration.
func (m *RevocableMachine) Init(ctx *sim.Context) {
	m.k = 1 // doubled to 2 by startEstimate
	m.startEstimate()
	m.startIteration()
}

// startEstimate advances to the next k (Algorithm 6 line 8) and derives
// the per-k parameters.
func (m *RevocableMachine) startEstimate() {
	m.k *= 2
	m.fK = m.p.fOf(m.k)
	m.rK = m.p.rOf(m.k)
	m.dissK = m.p.dissOf(m.k)
	m.tau = m.p.tauOf(m.k)
	m.share = 1 / (2 * m.p.kPow(m.k))
	m.degCap = m.p.kPow(m.k)
	m.idRange = m.p.idRangeOf(m.k)
	m.iter = 0
	m.status = m.status[:0]
	m.empty = m.empty[:0]
}

// startIteration begins one certification iteration: sample color, reset
// potential and flags (Algorithm 6 line 10, Algorithm 7 lines 2-4).
func (m *RevocableMachine) startIteration() {
	white := m.r.Bernoulli(m.p.pOf(m.k))
	m.c = white
	m.q = true
	if white {
		m.phi = 0
	} else {
		m.phi = 1
	}
	m.potBits = 1
	m.phase = phaseDiffusion
	m.phaseRound = 0
}

// Step implements sim.Machine: one synchronous round of the current phase.
func (m *RevocableMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	if m.frozen {
		return
	}
	switch m.phase {
	case phaseDiffusion:
		m.stepDiffusion(ctx, inbox)
	case phaseDissemination:
		m.stepDissemination(ctx, inbox)
	}
}

// stepDiffusion handles one diffusion round (Algorithm 7 lines 5-13).
// Synchronous structure: the broadcast of round t was emitted at the end
// of round t-1's Step, so this round's inbox carries the neighbors' values
// for the current exchange; we fold them in, then emit the next broadcast.
func (m *RevocableMachine) stepDiffusion(ctx *sim.Context, inbox []sim.Packet) {
	if m.phaseRound > 0 {
		m.foldDiffusionInbox(ctx, inbox)
	}
	if m.phaseRound >= m.rK {
		// Diffusion done: threshold alarm (line 13), move to
		// dissemination.
		if m.phi > m.tau {
			m.q = false
			m.phi = 1
		}
		m.phase = phaseDissemination
		m.phaseRound = 0
		m.stepDissemination(ctx, nil)
		return
	}
	m.phaseRound++
	ctx.Broadcast(avgMsg{
		phi: m.phi, potBits: m.potBits, q: m.q, c: m.c,
		idldr: m.idldr, kldr: m.kldr,
	})
}

// foldDiffusionInbox applies the averaging update and alarms for one
// completed exchange (Algorithm 7 lines 7-12).
func (m *RevocableMachine) foldDiffusionInbox(ctx *sim.Context, inbox []sim.Packet) {
	deg := ctx.Degree()
	allProbing := true
	sum := 0.0
	got := 0
	maxBits := m.potBits
	for _, pkt := range inbox {
		msg, ok := pkt.Payload.(avgMsg)
		if !ok {
			continue
		}
		got++
		if !msg.q {
			allProbing = false
		}
		sum += msg.phi
		if msg.potBits > maxBits {
			maxBits = msg.potBits
		}
		m.mergeCert(msg.idldr, msg.kldr)
	}
	if m.q && float64(deg) <= m.degCap && allProbing && got == deg {
		m.phi += sum*m.share - float64(deg)*m.phi*m.share
		m.potBits = maxBits + int(math.Ceil(math.Log2(2*m.p.kPow(m.k))))
	} else {
		m.q = false
		m.phi = 1
		m.potBits = 1
	}
}

// stepDissemination handles one dissemination round (Algorithm 7 lines
// 14-21): OR-merge alarms and white flags, merge leader certificates.
func (m *RevocableMachine) stepDissemination(ctx *sim.Context, inbox []sim.Packet) {
	for _, pkt := range inbox {
		msg, ok := pkt.Payload.(dissMsg)
		if !ok {
			continue
		}
		if !msg.q {
			m.q = false
		}
		if msg.c {
			m.c = true
		}
		m.mergeCert(msg.idldr, msg.kldr)
	}
	if m.phaseRound >= m.dissK {
		m.finishIteration(ctx)
		return
	}
	m.phaseRound++
	ctx.Broadcast(dissMsg{q: m.q, c: m.c, idldr: m.idldr, kldr: m.kldr})
}

// finishIteration records ⟨q, c⟩ (Algorithm 6 lines 11-13) and either
// starts the next certification iteration or runs the decision phase.
func (m *RevocableMachine) finishIteration(ctx *sim.Context) {
	m.status = append(m.status, m.q)
	m.empty = append(m.empty, !m.c)
	m.iter++
	if m.iter < m.fK {
		m.startIteration()
		return
	}
	m.decide(ctx)
	if m.p.maxK > 0 && m.k >= m.p.maxK {
		m.frozen = true
		return
	}
	m.startEstimate()
	m.startIteration()
}

// decide is the decision phase (Algorithm 6 lines 14-17).
func (m *RevocableMachine) decide(ctx *sim.Context) {
	emptyCount, probing := 0, 0
	for i := range m.status {
		if m.empty[i] {
			emptyCount++
		}
		if m.status[i] {
			probing++
		}
	}
	if m.id == 0 && emptyCount*2 > m.fK && probing > 0 {
		m.id = 1 + m.r.Uint64n(m.idRange)
		m.bigK = m.k
		// Line 16: adopt self as provisional leader; dissemination in the
		// next iterations revokes it if a better certificate exists.
		m.idldr, m.kldr = m.id, m.bigK
		if ctx.Tracing() {
			ctx.Trace("choose", fmt.Sprintf("id=%d k=%d", m.id, m.bigK))
		}
	}
	m.refreshLeader()
}

// refreshLeader recomputes the (revocable) leadership flag. The paper's
// prose keeps the indicator "maintained accordingly", so it is refreshed
// on every certificate change rather than only at Algorithm 6 line 17.
func (m *RevocableMachine) refreshLeader() {
	m.leader = m.id != 0 && m.kldr == m.bigK && m.idldr == m.id
}

// mergeCert folds a received leader certificate: larger K wins; ties go to
// the smaller ID (Algorithm 7 lines 10-12 and 19-21).
func (m *RevocableMachine) mergeCert(id, k uint64) {
	if k == 0 {
		return
	}
	if k > m.kldr || (k == m.kldr && id < m.idldr) {
		m.kldr = k
		m.idldr = id
		m.refreshLeader()
	}
}
