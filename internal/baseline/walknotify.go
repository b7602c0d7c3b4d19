package baseline

import (
	"fmt"
	"math"
	"slices"

	"anonlead/internal/congest"
	"anonlead/internal/core"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// wnParams holds the resolved parameters of the Gilbert-class baseline.
type wnParams struct {
	cand    core.Candidacy
	beta    int // tokens per candidate
	walkLen int
	total   int // decide round: walk phase + kill drain + decide
}

// resolveWalkNotify validates pc's inputs — the known size N and the
// lazy-walk mixing time TMix (or an upper bound) — and derives the rest:
// pc.C scales candidate rate and walk length. Every candidate sends
// β = ⌈√n·ln^{3/2} n⌉ tokens (at least 2, since ln n is taken as at least
// 1), the Θ(√n·log^{3/2} n) that reproduces the O(tmix·√n·polylog n)
// message bound of Gilbert et al.
func resolveWalkNotify(pc core.ProtoConfig) (wnParams, error) {
	if pc.N < 2 {
		return wnParams{}, fmt.Errorf("N must be >= 2, got %d", pc.N)
	}
	if pc.TMix < 1 {
		return wnParams{}, fmt.Errorf("TMix must be >= 1, got %d", pc.TMix)
	}
	if err := core.CheckC(pc.C); err != nil {
		return wnParams{}, err
	}
	c, ln := core.CLogN(pc.N, pc.C)
	p := wnParams{
		cand: core.NewCandidacy(pc.N, pc.C),
		beta: int(math.Ceil(math.Sqrt(float64(pc.N)) * math.Pow(ln, 1.5))),
	}
	p.walkLen = int(math.Ceil(c * float64(pc.TMix) * ln))
	if p.walkLen < 4 {
		p.walkLen = 4
	}
	p.total = 2*p.walkLen + 3
	return p, nil
}

// buildWalkNotify is the registry's walknotify builder. The budget is the
// decide round's count plus slack and the adversary's jitter bound.
func buildWalkNotify(pc core.ProtoConfig) (core.Runner, error) {
	p, err := resolveWalkNotify(pc)
	if err != nil {
		return core.Runner{}, err
	}
	var arena sim.Arena[WalkNotifyMachine]
	return core.Runner{
		Factory: func(node, degree int, r *rng.RNG) sim.Machine {
			m := arena.New()
			m.p, m.r = p, r
			return m
		},
		Budget: p.total + 1 + 2 + pc.MaxDelay,
	}, nil
}

// wnTokenMsg moves count walk tokens of one candidate across a link. It and
// wnKillMsg are sent as pointers into their machine's sim.Msgs rings.
type wnTokenMsg struct {
	orig  uint64
	count int
}

// Bits returns the CONGEST size (origin ID + multiplicity).
func (m wnTokenMsg) Bits() int {
	return congest.BitLen(m.orig) + congest.BitLen(uint64(m.count))
}

// wnKillMsg climbs the breadcrumb forest of candidate orig toward its
// origin, eliminating it.
type wnKillMsg struct{ orig uint64 }

// Bits returns the CONGEST size (origin ID + 1 tag bit).
func (m wnKillMsg) Bits() int { return 1 + congest.BitLen(m.orig) }

// WalkNotifyOutput is a node's result after the protocol halts.
type WalkNotifyOutput struct {
	Candidate  bool
	ID         uint64
	Eliminated bool
	MaxMark    uint64
	Leader     bool
}

// wnCand is what a node remembers about one candidate whose tokens or
// kill notices reached it.
type wnCand struct {
	back     int  // 1 + first-arrival port (the breadcrumb); 0 = none
	parked   int  // tokens resting here
	killSent bool // a kill notice for the candidate left this node
}

// WalkNotifyMachine implements the Gilbert-class baseline: candidates spray
// beta lazy-walk tokens carrying their ID; nodes keep the largest marking
// ID and a reverse pointer (first-arrival port) per candidate; a token
// landing on (or parked at) a node marked by a larger ID dies and a kill
// notice retraces the reverse pointers to eliminate its candidate.
type WalkNotifyMachine struct {
	p   wnParams
	r   *rng.RNG
	out WalkNotifyOutput

	maxMark   uint64
	cands     sim.Table[wnCand]
	leaving   []int    // moveTokens scratch: row i = tokens of cands.At(i) leaving per port; zero between rounds
	killQueue []uint64 // kills to emit this round (deduped, sorted on emit)
	sprayed   bool
	halted    bool

	tokens sim.Msgs[wnTokenMsg]
	kills  sim.Msgs[wnKillMsg]
}

// Output returns the node's result; valid after halting.
func (m *WalkNotifyMachine) Output() WalkNotifyOutput { return m.out }

// Init implements sim.Machine.
func (m *WalkNotifyMachine) Init(ctx *sim.Context) {
	m.out.ID, m.out.Candidate = m.p.cand.Draw(m.r)
	if m.out.Candidate {
		m.maxMark = m.out.ID
		m.cands.Insert(m.out.ID) // the spray's row; never gets a breadcrumb
	}
}

// Step implements sim.Machine.
func (m *WalkNotifyMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	if m.halted {
		return
	}
	round := ctx.Round()
	for _, pkt := range inbox {
		switch msg := pkt.Payload.(type) {
		case *wnTokenMsg:
			m.receiveTokens(int(pkt.Port), *msg)
		case *wnKillMsg:
			m.receiveKill(msg.orig)
		}
	}

	if round < m.p.walkLen {
		m.moveTokens(ctx)
	}
	m.emitKills(ctx)

	if round >= m.p.total {
		m.out.MaxMark = m.maxMark
		m.out.Leader = m.out.Candidate && !m.out.Eliminated && m.maxMark == m.out.ID
		m.halted = true
		ctx.Halt()
		return
	}
	if m.quiescent(round) {
		ctx.IdleUntil(m.p.total)
	}
}

// quiescent reports whether Steps with empty inboxes would do nothing from
// the next round until the decide round: no walk round is left, or the
// spray is done and no token rests here. emitKills has just drained the
// kill queue, and only arrivals refill it.
func (m *WalkNotifyMachine) quiescent(round int) bool {
	if round+1 >= m.p.walkLen {
		return true
	}
	if !m.sprayed {
		return false
	}
	for i := 0; i < m.cands.Len(); i++ {
		if _, c := m.cands.At(i); c.parked > 0 {
			return false
		}
	}
	return true
}

// receiveTokens parks arriving tokens, maintains breadcrumbs and marks,
// and schedules kills for tokens that met a larger mark (either way
// around).
func (m *WalkNotifyMachine) receiveTokens(port int, msg wnTokenMsg) {
	c := msg.orig
	// No candidate joins the table below (the kills are for ones already in
	// it), so cand stays valid to the end.
	cand, _ := m.cands.Insert(c)
	if cand.back == 0 && !(m.out.Candidate && c == m.out.ID) {
		cand.back = port + 1
	}
	switch {
	case c < m.maxMark:
		m.scheduleKill(c) // arriving tokens die on a larger mark
		return
	case c > m.maxMark:
		m.maxMark = c
		// Parked tokens of smaller candidates die under the new mark.
		for i := 0; i < m.cands.Len(); i++ {
			if d, smaller := m.cands.At(i); d < c && smaller.parked > 0 {
				smaller.parked = 0
				m.scheduleKill(d)
			}
		}
		// A smaller candidate origin is eliminated on the spot.
		if m.out.Candidate && m.out.ID < c {
			m.out.Eliminated = true
		}
	}
	cand.parked += msg.count
}

// receiveKill forwards a kill along the breadcrumb or absorbs it at the
// origin.
func (m *WalkNotifyMachine) receiveKill(orig uint64) {
	if m.out.Candidate && orig == m.out.ID {
		m.out.Eliminated = true
		return
	}
	m.scheduleKill(orig)
}

// scheduleKill queues a kill notice for candidate orig (once per node).
func (m *WalkNotifyMachine) scheduleKill(orig uint64) {
	if m.out.Candidate && orig == m.out.ID {
		m.out.Eliminated = true
		return
	}
	cand, _ := m.cands.Insert(orig)
	if cand.killSent {
		return
	}
	cand.killSent = true
	m.killQueue = append(m.killQueue, orig)
}

// emitKills sends queued kill notices toward the origins.
func (m *WalkNotifyMachine) emitKills(ctx *sim.Context) {
	if len(m.killQueue) == 0 {
		return
	}
	slices.Sort(m.killQueue)
	for _, orig := range m.killQueue {
		if back := m.cands.Find(orig).back; back > 0 {
			ctx.Send(back-1, 0, m.kills.New(ctx, wnKillMsg{orig: orig}))
		}
	}
	m.killQueue = m.killQueue[:0]
}

// moveTokens sprays the initial tokens (first walk round) and advances the
// lazy walks: each parked token stays with probability 1/2 or departs on a
// uniform port, batched per (port, candidate).
func (m *WalkNotifyMachine) moveTokens(ctx *sim.Context) {
	deg := ctx.Degree()
	if deg == 0 {
		return
	}
	if need := m.cands.Len() * deg; len(m.leaving) < need {
		m.leaving = make([]int, need)
	}
	spray := -1 // the row the initial spray filled, if this call sprayed
	if !m.sprayed {
		m.sprayed = true
		if m.out.Candidate {
			spray = m.cands.Index(m.out.ID) // Init inserted the own ID
			for i := 0; i < m.p.beta; i++ {
				m.leaving[spray*deg+m.r.Intn(deg)]++
			}
		}
	}
	for i := 0; i < m.cands.Len(); i++ {
		orig, cand := m.cands.At(i)
		if cand.parked == 0 && i != spray {
			continue
		}
		row := m.leaving[i*deg : (i+1)*deg]
		kept := 0
		for t := 0; t < cand.parked; t++ {
			if m.r.Coin() {
				kept++
				continue
			}
			row[m.r.Intn(deg)]++
		}
		cand.parked = kept
		for p, c := range row {
			if c > 0 {
				ctx.Send(p, 0, m.tokens.New(ctx, wnTokenMsg{orig: orig, count: c}))
				row[p] = 0
			}
		}
	}
}
