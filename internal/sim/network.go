package sim

import (
	"context"
	"runtime"
	"sync"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/trace"
)

// Config configures a Network.
type Config struct {
	// Graph is the topology (required, connected graphs expected).
	Graph *graph.Graph
	// Seed is the root seed; per-node streams are split from it, so runs
	// are reproducible and scheduler-independent.
	Seed uint64
	// CongestBits is the per-link per-round bit budget B. Zero selects the
	// default 8·⌈log₂ n⌉, a concrete constant for the paper's O(log n).
	CongestBits int
	// Scheduler selects the execution engine; all engines are
	// bit-identical. The zero value is Sequential.
	Scheduler Scheduler
	// Workers sets the pool size for WorkerPool (0 = GOMAXPROCS).
	Workers int
	// Trace, when non-nil, receives protocol events emitted through
	// Context.Trace. Must be safe for concurrent Record calls when a
	// concurrent scheduler is selected.
	Trace trace.Recorder
	// Adversary, when non-nil, perturbs delivery (drops, delays, crashes).
	// Nil costs nothing on the hot path. See the Adversary interface and
	// internal/adversary for deterministic, seed-derived implementations.
	Adversary Adversary
	// Observer, when non-nil, is invoked from the single-threaded
	// coordination path after every executed round with a snapshot of the
	// accumulated cost accounting. Nil costs nothing. Observers are
	// read-only taps: nothing they do flows back into the simulation.
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
// in-flight count, cost accounting). Not safe for concurrent use by multiple
// callers; internally the parallel scheduler partitions work safely.
type Network struct {
	Ledger
	g         *graph.Graph
	machines  []Machine
	ctxs      []Context
	inbox     [][]Packet
	next      [][]Packet
	revPort   []int32 // flat: reverse port of (v, port) = revPort[edgeOff[v]+port]
	edgeOff   []int   // directed edge id of (v, port) = edgeOff[v] + port
	rngs      []rng.RNG
	scheduler Scheduler
	workers   int
	actors    *actorPool
	observer  func(RoundInfo)
	links     LinkLoads // this round's bit loads, per directed edge
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
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Struct-of-arrays state: every per-node and per-edge buffer is carved
	// out of one flat allocation, so building a network is O(m) work with
	// O(1) allocations per *network*, not per node. The per-node slice
	// headers keep len 0 / cap deg windows into shared backing arrays;
	// append within capacity writes into the arena, and the rare protocol
	// that overflows its window (multi-packet rounds) falls back to a
	// normal heap-grown slice with identical semantics.
	nw := &Network{
		Ledger:    NewLedger(n, cfg.CongestBits),
		g:         g,
		machines:  make([]Machine, n),
		ctxs:      make([]Context, n),
		inbox:     make([][]Packet, n),
		next:      make([][]Packet, n),
		revPort:   g.ReversePorts(),
		edgeOff:   g.EdgeOffsets(),
		rngs:      make([]rng.RNG, n),
		scheduler: cfg.Scheduler,
		workers:   workers,
		observer:  cfg.Observer,
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
		nw.ctxs[v] = Context{degree: deg, rng: &nw.rngs[v], node: v, rec: cfg.Trace, out: outBuf[lo:lo:hi]}
		nw.machines[v] = newMachine(root, factory, v, deg, &nw.rngs[v])
	}
	nw.links = NewLinkLoads(off, nw.metrics.CongestBits)

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
	nw.closeRound(false)
	return nw
}

// N returns the node count.
func (nw *Network) N() int { return len(nw.machines) }

// Graph returns the underlying topology.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Machine returns node v's machine so the harness can read protocol
// outputs after a run.
func (nw *Network) Machine(v int) Machine { return nw.machines[v] }

// Step executes one synchronous round and returns false once the ledger's
// stop rule holds (releasing any persistent actor goroutines).
func (nw *Network) Step() bool {
	if nw.Done() {
		// Parked delayed packets can only target halted receivers now, so
		// they are undeliverable — discard instead of spinning drain rounds.
		nw.dropAllFutures()
		nw.Close()
		return false
	}
	round := nw.Round()
	nw.applyCrashes(round)
	nw.releaseFutures(round)
	nw.deliver(round)
	nw.route(round)
	nw.closeRound(true)
	if nw.observer != nil {
		nw.observer(nw.Info(round))
	}
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

// stepNode runs one node's step for the round — the step Stepper.Step
// runs, stopped if the ledger says so (a halt or a crash). It touches only
// node v's state, so any scheduler may invoke it concurrently for distinct
// nodes. A node idling under its IdleUntil promise with nothing delivered
// is skipped outright: the call would be a no-op, and route already
// emptied ctx.out.
func (nw *Network) stepNode(v, round int) {
	ctx := &nw.ctxs[v]
	box := nw.inbox[v]
	if len(box) == 0 && round < int(ctx.wake) {
		return
	}
	step(ctx, nw.machines[v], round, box, nw.halted[v])
}

// deliver invokes Step on every live machine with this round's inbox,
// using the configured scheduler.
func (nw *Network) deliver(round int) {
	n := len(nw.machines)
	switch {
	case nw.scheduler == Actors:
		nw.deliverActors(round)
	case nw.scheduler == WorkerPool && n >= 2*nw.workers:
		var wg sync.WaitGroup
		chunk := (n + nw.workers - 1) / nw.workers
		for start := 0; start < n; start += chunk {
			end := start + chunk
			if end > n {
				end = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for v := lo; v < hi; v++ {
					nw.stepNode(v, round)
				}
			}(start, end)
		}
		wg.Wait()
	default:
		for v := 0; v < n; v++ {
			nw.stepNode(v, round)
		}
	}
	// Clear delivered mailboxes for reuse as the next "next" buffers.
	for v := range nw.inbox {
		nw.inbox[v] = nw.inbox[v][:0]
	}
}

// route moves every context's sends into the receivers' next-round
// mailboxes, folding them into the ledger in sender order (single-threaded:
// determinism for every scheduler): halts, deliveries, traffic metering,
// and — when an adversary is configured — its drop or delay of each packet.
// round is the round whose sends are being routed (-1 for Init).
func (nw *Network) route(round int) {
	nw.links.Reset()
	for v := range nw.machines {
		ctx := &nw.ctxs[v]
		if ctx.halted {
			nw.Stop(v)
		}
		if nw.adv != nil {
			nw.sent[v] = len(ctx.out)
		}
		for _, s := range ctx.out {
			w := nw.g.Neighbor(v, s.Port)
			e := nw.edgeOff[v] + s.Port
			q := nw.revPort[e]
			bits := s.Payload.Bits()
			nw.Sent(1, int64(bits))
			// Link slots are charged before the adversary acts: a dropped
			// or delayed packet was still transmitted by its sender.
			nw.links.Add(int32(e), s.Channel, bits)
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
			}
		}
		ctx.out = ctx.out[:0]
	}
	nw.inbox, nw.next = nw.next, nw.inbox
	if nw.adv != nil {
		nw.observeTraffic(round)
	}
}

// closeRound charges the round just routed. counted=false is the Init
// pseudo-round.
func (nw *Network) closeRound(counted bool) {
	maxSlots, maxChannels := nw.links.Max()
	nw.CloseRound(counted, maxSlots, maxChannels)
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
