package core

import (
	"fmt"
	"math"

	"anonlead/internal/congest"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// revParams holds the analysis parameters of Blind Leader Election with
// Certificates via Diffusion with Thresholds (Section 5.2, Algorithms 6-7).
// The protocol uses NO network knowledge; the parameters only fix ε,
// optionally a known isoperimetric lower bound (Theorem 3 vs Corollary 1),
// and simulation calibration multipliers. The error parameter ξ of f(k) is
// the constant xi.
type revParams struct {
	// eps is the paper's ε ∈ (0, 1], 0.5 by default (smaller ε lowers the
	// polynomial degree of every phase length, which is what makes faithful
	// runs simulable; any value in (0,1] satisfies the analysis).
	eps float64
	// iso, when positive, is a known lower bound on i(G) and selects the
	// Theorem 3 diffusion length; zero selects the fully blind Corollary 1
	// length (i(G) ≥ 2/k proxy, using only the running estimate).
	iso float64
	// fMult and rMult scale f(k) (certification repetitions) and r(k)
	// (diffusion rounds) for calibrated runs at sizes where the faithful
	// polynomials are not simulable. 1 (the default) is faithful.
	fMult, rMult float64
}

// xi is the paper's error parameter ξ ∈ (0, 1) in f(k).
const xi = 0.5

func resolveRevocable(pc ProtoConfig) (revParams, error) {
	p := revParams{eps: pc.Epsilon, iso: pc.Iso, fMult: pc.FMult, rMult: pc.RMult}
	if p.eps == 0 {
		p.eps = 0.5
	}
	if !(p.eps > 0) || p.eps > 1 {
		return p, fmt.Errorf("Epsilon must be in (0,1], got %v", pc.Epsilon)
	}
	if !(p.iso >= 0) {
		return p, fmt.Errorf("Iso must be >= 0, got %v", pc.Iso)
	}
	if p.fMult == 0 {
		p.fMult = 1
	}
	if p.rMult == 0 {
		p.rMult = 1
	}
	if !(p.fMult > 0) || !(p.rMult > 0) {
		return p, fmt.Errorf("FMult and RMult must be positive, got %v and %v", pc.FMult, pc.RMult)
	}
	return p, nil
}

// ResolveRevocable reports the diffusion schedule a Revocable run of pc
// follows at estimate k — the white-node probability p(k), the alarm
// threshold τ(k), the diffusion length r(k) and the share 1/(2k^{1+ε}) of
// its potential a node sends each neighbour: what the Lemmas 5-8 ablation
// evolves exactly.
func ResolveRevocable(pc ProtoConfig) (schedule func(k uint64) (pWhite, tau float64, r int, share float64), err error) {
	p, err := resolveRevocable(pc)
	if err != nil {
		return nil, err
	}
	return func(k uint64) (float64, float64, int, float64) {
		return p.pOf(k), p.tauOf(k), p.rOf(k), p.shareOf(k)
	}, nil
}

// buildRevocable is the registry's revocable builder. The run is
// open-ended: Converged is polled every CheckEvery rounds under MaxRounds.
func buildRevocable(pc ProtoConfig) (Runner, error) {
	p, err := resolveRevocable(pc)
	if err != nil {
		return Runner{}, err
	}
	maxRounds := pc.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 200_000_000
		if pc.Faulted {
			// Faults can make convergence unreachable (e.g. the would-be
			// leader crash-stops); the fault-free budget would be an
			// effective hang, so adversarial runs get a bounded one.
			maxRounds = 1_000_000
		}
	}
	return Runner{
		Factory: func(node, degree int, r *rng.RNG) sim.Machine {
			return &RevocableMachine{p: &p, r: r}
		},
		CheckEvery: 64,
		MaxRounds:  maxRounds,
		Converged:  func(nw sim.View) bool { return revocableConverged(nw, &p) },
		Collect:    collectRevocable,
	}, nil
}

// revocableConverged is the Theorem 3 stabilization predicate, evaluated
// over surviving nodes (a crashed node can never choose, so including it
// would run every faulted trial to the round cap). The reference output
// comes from the lowest-index survivor.
func revocableConverged(nw sim.View, p *revParams) bool {
	n := nw.N()
	ref := -1
	for v := 0; v < n; v++ {
		if !nw.Crashed(v) {
			ref = v
			break
		}
	}
	if ref < 0 {
		return false // everyone crashed; the run can only time out
	}
	first := nw.Machine(ref).(*RevocableMachine).Output()
	if !first.Chosen || first.LeaderK == 0 {
		return false
	}
	if p.kPow(first.EstimateK) <= 4*float64(n) {
		return false
	}
	for v := ref + 1; v < n; v++ {
		if nw.Crashed(v) {
			continue
		}
		o := nw.Machine(v).(*RevocableMachine).Output()
		if !o.Chosen || o.LeaderK != first.LeaderK || o.LeaderID != first.LeaderID {
			return false
		}
	}
	return true
}

// collectRevocable reads the certificate the survivors agree on beside
// the leaders.
func collectRevocable(nw sim.View) Outcome {
	out := Outcome{AllKnow: true}
	for v := 0; v < nw.N(); v++ {
		if nw.Crashed(v) {
			continue
		}
		o := nw.Machine(v).(*RevocableMachine).Output()
		if out.Certificate == nil {
			out.Certificate = &Certificate{ID: o.LeaderID, Estimate: o.LeaderK}
			out.FinalEstimate = o.EstimateK
			out.LeaderID = o.LeaderID
		}
		if o.Leader {
			out.Leaders = append(out.Leaders, v)
		}
	}
	return out
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
	f := (lead / denom) * math.Log(p.kPow(k)/xi)
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

// shareOf returns 1/(2k^{1+ε}), the fraction of its potential a node sends
// each neighbour per diffusion step (Algorithm 7's averaging update).
func (p revParams) shareOf(k uint64) float64 {
	return 1 / (2 * p.kPow(k))
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
// charges the growing size through Bits. Like dissMsg it is sent as a
// pointer into its machine's sim.Msgs ring, which refills its memory once
// no delivery can read it.
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
func (m *avgMsg) Bits() int {
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
func (m *dissMsg) Bits() int {
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
	p *revParams // shared by every machine of the factory, read-only
	r *rng.RNG

	// Algorithm 6 state.
	k      uint64 // current network-size estimate
	id     uint64 // chosen ID; 0 = nil (not chosen yet)
	bigK   uint64 // the estimate certificate the ID was chosen under
	idldr  uint64 // leader certificate: smallest ID among the largest K seen
	kldr   uint64
	leader bool // the revocable leadership flag (Algorithm 6 line 17)
	iter   int  // certification iterations completed at this k
	// probing and empty count this k's iterations that ended still probing
	// (the paper's status[i]) and without a white node (empty[i]); the
	// decision phase reads nothing else of the two arrays.
	probing, empty int

	// Per-estimate constants, set by startEstimate: each is a function of
	// k alone.
	fK       int     // f(k): certification iterations
	rK       int     // r(k): diffusion rounds
	dissK    int     // k^{1+ε}: dissemination rounds
	growBits int     // ⌈log₂(2k^{1+ε})⌉: potential bits an averaging step adds
	pWhite   float64 // p(k): white-node probability
	tau      float64 // τ(k): potential alarm threshold
	share    float64 // 1/(2k^{1+ε}): potential share sent per neighbour
	degCap   float64 // k^{1+ε}: degree alarm level
	idRange  uint64  // ID sample range

	// Algorithm 7 per-iteration state.
	phase      revPhase
	q          bool // probing
	c          bool // white exists
	phaseRound int
	phi        float64
	potBits    int // bit length of phi

	avgs    sim.Msgs[avgMsg]
	dissems sim.Msgs[dissMsg]
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
// the per-k parameters. Everything that depends on k alone is computed
// here, once per estimate, with the expression the per-round code would
// use, so each round reads it instead of recomputing k^{1+ε}.
func (m *RevocableMachine) startEstimate() {
	m.k *= 2
	m.fK = m.p.fOf(m.k)
	m.rK = m.p.rOf(m.k)
	m.dissK = m.p.dissOf(m.k)
	m.growBits = int(math.Ceil(math.Log2(2 * m.p.kPow(m.k))))
	m.pWhite = m.p.pOf(m.k)
	m.tau = m.p.tauOf(m.k)
	m.share = m.p.shareOf(m.k)
	m.degCap = m.p.kPow(m.k)
	m.idRange = m.p.idRangeOf(m.k)
	m.iter, m.probing, m.empty = 0, 0, 0
}

// startIteration begins one certification iteration: sample color, reset
// potential and flags (Algorithm 6 line 10, Algorithm 7 lines 2-4).
func (m *RevocableMachine) startIteration() {
	white := m.r.Bernoulli(m.pWhite)
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
	ctx.Broadcast(m.avgs.New(ctx, avgMsg{
		phi: m.phi, potBits: m.potBits, q: m.q, c: m.c,
		idldr: m.idldr, kldr: m.kldr,
	}))
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
		msg, ok := pkt.Payload.(*avgMsg)
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
		m.potBits = maxBits + m.growBits
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
		msg, ok := pkt.Payload.(*dissMsg)
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
		m.finishIteration()
		return
	}
	m.phaseRound++
	ctx.Broadcast(m.dissems.New(ctx, dissMsg{q: m.q, c: m.c, idldr: m.idldr, kldr: m.kldr}))
}

// finishIteration records ⟨q, c⟩ (Algorithm 6 lines 11-13) and either
// starts the next certification iteration or runs the decision phase.
func (m *RevocableMachine) finishIteration() {
	if m.q {
		m.probing++
	}
	if !m.c {
		m.empty++
	}
	m.iter++
	if m.iter < m.fK {
		m.startIteration()
		return
	}
	m.decide()
	m.startEstimate()
	m.startIteration()
}

// decide is the decision phase (Algorithm 6 lines 14-17).
func (m *RevocableMachine) decide() {
	if m.id == 0 && m.empty*2 > m.fK && m.probing > 0 {
		m.id = 1 + m.r.Uint64n(m.idRange)
		m.bigK = m.k
		// Line 16: adopt self as provisional leader; dissemination in the
		// next iterations revokes it if a better certificate exists.
		m.idldr, m.kldr = m.id, m.bigK
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
