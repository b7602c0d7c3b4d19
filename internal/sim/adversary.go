package sim

import "math/bits"

// Adversary is a deterministic fault-injection policy interposed between
// send and delivery. The simulator consults it from its round loop only, so
// implementations never see concurrent calls — but determinism still must
// not lean on call order: every decision is required to be a pure function
// of the adversary's own seed material and the call's arguments, so that a
// fault does not depend on which packets were asked about before it.
// internal/adversary provides the
// implementation (Bernoulli link loss, crash-stop schedules, link churn,
// delivery-delay jitter, traffic-adaptive crashes), one type built from a
// declarative spec on rng seed splitting.
//
// A nil Config.Adversary costs nothing: the fault paths are gated on a
// single nil check and the steady-state round stays allocation-free.
type Adversary interface {
	// CrashRound returns the round at whose start node v crash-stops
	// (negative = never). It is consulted once per node at network
	// construction. A crashed node no longer steps, sends nothing, and
	// drops everything addressed to it; Init (round -1) always runs.
	CrashRound(node int) int
	// Fate decides what happens to one packet sent in round round (Init is
	// round -1) by node from on port port toward node to: dropped, or
	// delivered after delay extra rounds on top of the normal next-round
	// delivery (0 = on time).
	Fate(round, from, port, to int) (drop bool, delay int)
	// MaxDelay bounds the delays Fate may return; it sizes the simulator's
	// future-delivery ring. 0 means no jitter.
	MaxDelay() int
	// ObserveTraffic receives the send counts of the round just routed
	// (sent[v] = packets node v sent this round; Init is round -1) and
	// returns the nodes to crash at the start of round+1, or nil — the
	// classic adaptive adversary that targets the busiest node (≈ the
	// emerging leader) instead of committing to a schedule up front. The
	// returned slice may be reused by the implementation; the simulator
	// consumes it before the next call.
	//
	// Determinism needs no extra seed material: route() iterates nodes in
	// index order, so the observed counts — and any pure function of them —
	// are a function of the run's seed. Adaptive crashes compose
	// with the CrashRound schedule: the earlier of the two rounds wins, and
	// already-crashed nodes are skipped.
	ObserveTraffic(round int, sent []int) []int
}

// observeTraffic feeds the round's send counts to the adversary and
// schedules the returned victims to crash at the start of the next round.
// An earlier existing schedule for a node wins. Only the round's visited
// nodes can have sent, so zeroing their counts afterwards leaves sent all
// zero for the next round.
func (nw *Network) observeTraffic(round int) {
	for _, v := range nw.adv.ObserveTraffic(round, nw.sent) {
		if v < 0 || v >= len(nw.crashAt) || nw.Crashed(v) {
			continue
		}
		if at := nw.crashAt[v]; at < 0 || at > round+1 {
			nw.crashAt[v] = round + 1
		}
	}
	for i, word := range nw.visits.visit {
		for ; word != 0; word &= word - 1 {
			nw.sent[i<<6|bits.TrailingZeros64(word)] = 0
		}
	}
}

// futureDelivery is a packet held back by adversarial delay, parked until
// its arrival round.
type futureDelivery struct {
	node int
	pkt  Packet
}

// applyCrashes crash-stops every node whose schedule has come due at the
// start of round. The ledger's crash latch reuses the halt (no further
// steps, inbound packets dropped), but is tracked separately so the harness
// can distinguish "stopped by protocol" from "killed by adversary".
func (nw *Network) applyCrashes(round int) {
	if nw.adv == nil {
		return
	}
	for v, at := range nw.crashAt {
		if at >= 0 && at <= round {
			nw.Crash(v)
		}
	}
}

// releaseFutures merges the delayed packets arriving this round into their
// receivers' inboxes (after the on-time packets routed last round, so
// arrival order is deterministic) and adds the
// receivers to the round's visit set. Packets for halted or crashed
// receivers are dropped, mirroring normal delivery.
func (nw *Network) releaseFutures(round int) {
	if nw.adv == nil || nw.pendingFuture == 0 {
		return
	}
	slot := round % len(nw.future)
	bucket := nw.future[slot]
	for _, fd := range bucket {
		nw.pendingFuture--
		if nw.Halted(fd.node) {
			continue
		}
		nw.inbox[fd.node] = append(nw.inbox[fd.node], fd.pkt)
		nw.visits.visit.add(fd.node)
	}
	nw.future[slot] = bucket[:0]
}

// dropAllFutures discards every parked delayed packet. Called when all
// nodes have halted: nothing in the ring can ever be delivered, so the run
// can terminate without spinning empty drain rounds.
func (nw *Network) dropAllFutures() {
	if nw.pendingFuture == 0 {
		return
	}
	for i := range nw.future {
		nw.future[i] = nw.future[i][:0]
	}
	nw.pendingFuture = 0
}
