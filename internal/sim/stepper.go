package sim

import (
	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// View is the read-only surface a protocol's convergence predicate and
// outcome collector need from a finished (or quiescent) execution. Both
// the in-memory simulator (*Network) and the real-transport cluster
// implement it, which is what lets registered protocols run unmodified on
// either backend: the registry's Collect/Converged hooks see the same
// machines either way.
type View interface {
	// N returns the node count.
	N() int
	// Graph returns the underlying topology.
	Graph() *graph.Graph
	// Machine returns node v's protocol machine.
	Machine(v int) Machine
	// Halted reports whether node v has stopped.
	Halted(v int) bool
	// Crashed reports whether node v was crash-stopped by an adversary
	// (always false on backends without fault injection).
	Crashed(v int) bool
}

var _ View = (*Network)(nil)

// Stepper drives a single protocol machine outside a Network: the
// real-transport node driver owns one Stepper per node and pumps it with
// the packets that arrived over the wire. Network keeps the same per-node
// state (context, private stream, machine) in parallel arrays indexed by
// node, which its per-round visit set addresses, and both build a node with
// newMachine and step it with step — context reset, halt check, inbox
// ordering, Machine.Step — so a machine cannot tell whether its packets
// came from the in-memory router or a socket.
//
// A Stepper is not safe for concurrent use; drive it from one goroutine.
type Stepper struct {
	ctx Context
	rng rng.RNG
	m   Machine
}

// newMachine seeds r, node v's private stream, from the run's root stream
// and builds the node's machine on it. Every backend constructs machines
// here, which is what makes a run a function of the seed and not of where
// its nodes execute.
func newMachine(root *rng.RNG, factory Factory, v, degree int, r *rng.RNG) Machine {
	r.Reseed(root.DeriveSeed(uint64(v)))
	return factory(v, degree, r)
}

// NewStepper builds node node's machine for a run of the given root seed,
// exactly as New builds it, and wraps it in a stepper. The machine never
// sees node, matching the anonymity contract of Factory.
func NewStepper(seed uint64, factory Factory, node, degree int) *Stepper {
	s := &Stepper{}
	s.ctx = Context{degree: degree, rng: &s.rng, life: msgLife(0)}
	s.m = newMachine(rng.New(seed), factory, node, degree, &s.rng)
	return s
}

// Init runs the machine's Init (round -1) and returns its sends, which the
// caller must deliver for the start of round 0. The returned slice is
// valid until the next Init/Step call.
func (s *Stepper) Init() []Send {
	s.ctx.reset(-1)
	s.m.Init(&s.ctx)
	return s.ctx.out
}

// Step runs one round with the packets delivered this round. The inbox is
// sorted in place into the simulator's canonical (port, channel) order, so
// callers only need to preserve per-link arrival order. A halted machine
// is not stepped and sends nothing. The returned slice is valid until the
// next call.
func (s *Stepper) Step(round int, inbox []Packet) []Send {
	step(&s.ctx, s.m, round, inbox, s.ctx.halted)
	return s.ctx.out
}

// step runs one round of m unless stopped, leaving the sends in ctx.out:
// the per-node step of every backend. Network passes its ledger's halt
// flag, which also covers crash-stops; Stepper.Step passes the machine's
// own.
func step(ctx *Context, m Machine, round int, inbox []Packet, stopped bool) {
	ctx.reset(round)
	if stopped {
		return
	}
	sortInbox(inbox)
	m.Step(ctx, inbox)
}

// Halted reports whether the machine has called Halt. Halting is final:
// further Step calls are no-ops.
func (s *Stepper) Halted() bool { return s.ctx.halted }

// Wake returns the IdleUntil promise of the last Init or Step call: the
// round before which the machine needs no step while its inbox stays
// empty, or 0 for none. The coordinator files the node by it, as route
// files a node of a Network.
func (s *Stepper) Wake() int { return int(s.ctx.wake) }

// Machine returns the driven machine, for outcome collection after a run.
func (s *Stepper) Machine() Machine { return s.m }
