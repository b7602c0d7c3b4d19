package sim

import (
	"context"
	"math/bits"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// Config configures a Network.
type Config struct {
	// Graph is the topology (required, connected graphs expected).
	Graph *graph.Graph
	// Seed is the root seed; per-node streams are split from it, so runs
	// are reproducible.
	Seed uint64
	// CongestBits is the per-link per-round bit budget B. Zero selects the
	// default 8·⌈log₂ n⌉, a concrete constant for the paper's O(log n).
	CongestBits int
	// Adversary, when non-nil, perturbs delivery (drops, delays, crashes).
	// Nil costs nothing on the hot path. See the Adversary interface and
	// internal/adversary for deterministic, seed-derived implementations.
	Adversary Adversary
	// Observer, when non-nil, is invoked after every executed round with a
	// snapshot of the accumulated cost accounting. Nil costs nothing.
	// Observers are read-only taps: nothing they do flows back into the
	// simulation.
	Observer func(RoundInfo)
}

// RoundInfo is the per-round snapshot handed to a configured Observer.
type RoundInfo struct {
	// Round is the index of the round just executed (0-based; the Init
	// pseudo-round is not observed).
	Round int
	// Halted is the number of nodes stopped so far (protocol halts and
	// adversary crash-stops combined).
	Halted int
	// Metrics is the cumulative cost accounting after this round.
	Metrics Metrics
}

// Network is a running simulation: one Machine per node plus double-buffered
// mailboxes, folded round by round into the embedded Ledger (halts, crashes,
// in-flight count, cost accounting). Every round runs on the calling
// goroutine; a Network is not safe for concurrent use.
//
// A round visits only the nodes with something to do (VisitSet). route
// builds next round's set as it folds this one, filing each visited node
// with the IdleUntil promise its step left. deliver steps exactly the nodes
// of the set and route folds exactly their sends, in ascending node order,
// so a round costs its traffic plus one pass over the set's n/64 words.
type Network struct {
	Ledger
	g        *graph.Graph
	machines []Machine
	ctxs     []Context
	inbox    [][]Packet
	next     [][]Packet
	revPort  []int32 // flat: reverse port of (v, port) = revPort[edgeOff[v]+port]
	edgeOff  []int   // directed edge id of (v, port) = edgeOff[v] + port
	rngs     []rng.RNG
	loads    LinkLoads // one sender's bit loads, per port
	visits   VisitSet  // the nodes stepped and folded this round, and next round's
	// Fault injection (all nil/empty when adv is nil — the common case).
	adv           Adversary
	crashAt       []int              // per-node crash round (-1 = never)
	future        [][]futureDelivery // delay ring, indexed by arrival round mod len
	pendingFuture int                // packets parked in the ring
	sent          []int              // per-node send counts of the routed round, for ObserveTraffic
}

// DefaultCongestBits returns the default per-link budget for an n-node
// network: 8·⌈log₂ n⌉ bits (a concrete instantiation of O(log n)). Every
// execution backend charges link slots with it to stay metric-compatible.
func DefaultCongestBits(n int) int {
	bits := 0
	for v := n; v > 1; v >>= 1 {
		bits++
	}
	if (1 << bits) < n {
		bits++
	}
	if bits < 1 {
		bits = 1
	}
	return 8 * bits
}

// New builds a network, constructs one machine per node via factory, and
// runs every machine's Init (whose sends arrive at the start of round 0).
func New(cfg Config, factory Factory) *Network {
	g := cfg.Graph
	if g == nil || g.N() == 0 {
		panic("sim: config requires a non-empty graph")
	}
	n := g.N()
	// Struct-of-arrays state: every per-node and per-edge buffer is carved
	// out of one flat allocation, so building a network is O(m) work with
	// O(1) allocations per *network*, not per node. The per-node slice
	// headers keep len 0 / cap deg windows into shared backing arrays;
	// append within capacity writes into the arena, and the rare protocol
	// that overflows its window (multi-packet rounds) falls back to a
	// normal heap-grown slice with identical semantics.
	nw := &Network{
		Ledger:   NewLedger(n, cfg.CongestBits, cfg.Observer),
		g:        g,
		machines: make([]Machine, n),
		ctxs:     make([]Context, n),
		inbox:    make([][]Packet, n),
		next:     make([][]Packet, n),
		revPort:  g.ReversePorts(),
		edgeOff:  g.EdgeOffsets(),
		rngs:     make([]rng.RNG, n),
		visits:   NewVisitSet(n),
	}

	life := msgLife(0)
	if cfg.Adversary != nil {
		life = msgLife(cfg.Adversary.MaxDelay())
	}
	root := rng.New(cfg.Seed)
	off := nw.edgeOff[n]
	inboxBuf := make([]Packet, off)
	nextBuf := make([]Packet, off)
	outBuf := make([]Send, off)
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		lo, hi := nw.edgeOff[v], nw.edgeOff[v+1]
		// Mailboxes and send buffers are sized for one packet per incident
		// link, the common protocol shape, so steady-state rounds reuse
		// them without growth.
		nw.inbox[v] = inboxBuf[lo:lo:hi]
		nw.next[v] = nextBuf[lo:lo:hi]
		nw.ctxs[v] = Context{degree: deg, rng: &nw.rngs[v], out: outBuf[lo:lo:hi], life: life}
		nw.machines[v] = newMachine(root, factory, v, deg, &nw.rngs[v])
	}
	nw.loads = NewLinkLoads(g.MaxDegree(), nw.metrics.CongestBits)

	if cfg.Adversary != nil {
		nw.adv = cfg.Adversary
		nw.crashAt = make([]int, n)
		nw.crashed = make([]bool, n)
		nw.sent = make([]int, n)
		for v := 0; v < n; v++ {
			nw.crashAt[v] = nw.adv.CrashRound(v)
		}
		// Ring size: while routing round r the live arrival rounds span
		// [r+1, r+1+MaxDelay] (slot r was drained first) — MaxDelay+2
		// slots never collide.
		nw.future = make([][]futureDelivery, nw.adv.MaxDelay()+2)
	}

	// Init phase (round -1): run Init on every machine, deliver sends to
	// round 0 mailboxes.
	for v := 0; v < n; v++ {
		ctx := &nw.ctxs[v]
		ctx.reset(-1)
		nw.machines[v].Init(ctx)
	}
	nw.route(-1)
	nw.CloseRound(false)
	return nw
}

// N returns the node count.
func (nw *Network) N() int { return len(nw.machines) }

// Graph returns the underlying topology.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Machine returns node v's machine so the harness can read protocol
// outputs after a run.
func (nw *Network) Machine(v int) Machine { return nw.machines[v] }

// Close is a no-op: a Network holds nothing but memory. It is there
// because Network is a transport.Runtime, whose Cluster backend does hold
// goroutines and links to release.
func (nw *Network) Close() {}

// Step executes one synchronous round and returns false once the ledger's
// stop rule holds.
func (nw *Network) Step() bool {
	if nw.Done() {
		// Parked delayed packets can only target halted receivers now, so
		// they are undeliverable — discard instead of spinning drain rounds.
		nw.dropAllFutures()
		return false
	}
	round := nw.Round()
	nw.applyCrashes(round)
	nw.releaseFutures(round)
	nw.deliver(round)
	nw.route(round)
	nw.CloseRound(true)
	return true
}

// RunLoop is the round loop of every execution backend: it calls step
// until maxRounds rounds ran, step reported the run over (more=false) or
// failed, ctx was cancelled (checked between rounds), or done — evaluated
// after each round with the rounds completed so far, nil for never —
// reported true. It returns the number of rounds executed.
func RunLoop(ctx context.Context, maxRounds int, step func() (more bool, err error), done func(completed int) bool) (int, error) {
	executed := 0
	for executed < maxRounds {
		if err := ctx.Err(); err != nil {
			return executed, err
		}
		if more, err := step(); err != nil || !more {
			return executed, err
		}
		executed++
		if done != nil && done(executed) {
			break
		}
	}
	return executed, nil
}

// Run executes up to rounds rounds, stopping early on global halt. It
// returns the number of rounds executed.
func (nw *Network) Run(rounds int) int { return nw.RunUntil(rounds, nil) }

// RunContext is Run with cooperative cancellation: the context is checked
// between rounds, and a cancellation stops the simulation cleanly (the
// accumulated metrics remain valid). It returns the number of rounds
// executed and the context's error if it caused the stop.
func (nw *Network) RunContext(ctx context.Context, rounds int) (int, error) {
	return nw.RunUntilContext(ctx, rounds, nil)
}

// RunUntil executes rounds until done(round) reports true or maxRounds is
// reached, returning the number of rounds executed. done is evaluated after
// each round with the number of rounds completed so far.
func (nw *Network) RunUntil(maxRounds int, done func(completed int) bool) int {
	executed, _ := nw.RunUntilContext(context.Background(), maxRounds, done)
	return executed
}

// RunUntilContext is RunUntil with cooperative cancellation between rounds
// (see RunContext).
func (nw *Network) RunUntilContext(ctx context.Context, maxRounds int, done func(completed int) bool) (int, error) {
	return RunLoop(ctx, maxRounds, func() (bool, error) { return nw.Step(), nil }, done)
}

// deliver steps every node of the round's visit set, in ascending order,
// with its inbox — the step Stepper.Step runs, stopped if the ledger says
// so (a halt or a crash) — and empties the inbox for reuse as a "next"
// buffer. A node outside the set has an empty inbox and an IdleUntil
// promise covering the round (or has stopped), so its step would do
// nothing.
func (nw *Network) deliver(round int) {
	for i, word := range nw.visits.visit {
		for ; word != 0; word &= word - 1 {
			v := i<<6 | bits.TrailingZeros64(word)
			step(&nw.ctxs[v], nw.machines[v], round, nw.inbox[v], nw.halted[v])
			nw.inbox[v] = nw.inbox[v][:0]
		}
	}
}

// route moves the visited nodes' sends into the receivers' next-round
// mailboxes, folding them into the ledger in sender order: halts,
// deliveries, traffic metering, and — when an adversary is configured — its
// drop or delay of each packet.
// It builds next round's visit set on the way. round is the round whose
// sends are being routed (-1 for Init).
func (nw *Network) route(round int) {
	for i, word := range nw.visits.visit {
		for ; word != 0; word &= word - 1 {
			v := i<<6 | bits.TrailingZeros64(word)
			nw.routeNode(v, round)
		}
	}
	nw.inbox, nw.next = nw.next, nw.inbox
	if nw.adv != nil {
		nw.observeTraffic(round)
	}
	nw.visits.Advance(round)
}

// routeNode folds visited node v's round and files v in the visit set.
func (nw *Network) routeNode(v, round int) {
	ctx := &nw.ctxs[v]
	if ctx.halted {
		nw.Stop(v)
	}
	if nw.adv != nil {
		nw.sent[v] = len(ctx.out)
	}
	// Link slots are charged before the adversary acts: a dropped or
	// delayed packet was still transmitted by its sender.
	if len(ctx.out) > 0 {
		nw.Sent(nw.loads.Charge(ctx.out))
	}
	for _, s := range ctx.out {
		w := nw.g.Neighbor(v, s.Port)
		q := nw.revPort[nw.edgeOff[v]+s.Port]
		delay := 0
		if nw.adv != nil {
			drop, d := nw.adv.Fate(round, v, s.Port, w)
			if drop {
				nw.metrics.Dropped++
				continue
			}
			delay = d
		}
		if delay > 0 {
			if nw.Halted(w) {
				continue // receiver stopped: packet dropped
			}
			nw.metrics.Delayed++
			slot := (round + 1 + delay) % len(nw.future)
			nw.future[slot] = append(nw.future[slot],
				futureDelivery{node: w, pkt: Packet{Port: int(q), Channel: s.Channel, Payload: s.Payload}})
			nw.pendingFuture++
			continue
		}
		if nw.Deliver(w, 1) {
			nw.next[w] = append(nw.next[w], Packet{Port: int(q), Channel: s.Channel, Payload: s.Payload})
			nw.visits.Mail(w)
		}
	}
	ctx.out = ctx.out[:0]
	nw.visits.File(v, round, int(ctx.wake), nw.Halted(v))
}

// sortInbox orders packets by (port, channel) with stable order for ties
// (a single neighbor's multi-packet sends keep their send order). Insertion
// sort: mailboxes are filled in ascending sender order, so arrivals are
// already nearly sorted by port and the sort runs in ~linear time without
// the allocations of sort.SliceStable.
func sortInbox(box []Packet) {
	for i := 1; i < len(box); i++ {
		p := box[i]
		j := i - 1
		for j >= 0 && (box[j].Port > p.Port || (box[j].Port == p.Port && box[j].Channel > p.Channel)) {
			box[j+1] = box[j]
			j--
		}
		box[j+1] = p
	}
}
