// Package adversary provides deterministic, seed-derived fault injection
// for the CONGEST simulator: a declarative Spec builds the one runtime
// adversary interposed between send and delivery via sim.Config.Adversary.
//
// The paper's guarantees (w.h.p. success, O(τ_mix)-time election) are
// stated for fault-free static synchronous networks. Related work ties
// election difficulty directly to environment structure and knowledge
// (Dieudonné–Pelc; Chatterjee–Pandurangan–Robinson), so this package exists
// to chart where the guarantees break: controlled perturbations produce
// degradation curves instead of a single fault-free point.
//
// Every decision is a pure function of the seed and the decision's
// coordinates (round, edge, node), derived through rng.DeriveSeed
// splitting, or of the traffic the router observed — never of call order.
// A faulted run is therefore a function of its seed alone.
//
// A Spec mixes five fault kinds — Bernoulli packet loss, crash-stop
// (scheduled and sampled; the earlier round wins), per-round edge churn
// (optionally keeping a BFS spanning tree up), bounded delivery delay and
// traffic-adaptive crashes of the busiest nodes — and one type applies
// them all. spec.go declares, names and validates it; this file is the
// runtime it builds for one trial.
package adversary

import (
	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// decision returns the RNG of one adversarial decision: a pure function of
// seed and the labels, independent of every other decision's stream.
func decision(seed uint64, labels ...uint64) *rng.RNG {
	r := rng.New(seed)
	for _, l := range labels {
		r = rng.New(r.DeriveSeed(l))
	}
	return r
}

// decision2 and decision3 are allocation-free variants of decision for the
// fixed label counts used on the per-packet hot path: a value RNG reseeded
// in place walks the identical derivation chain (Reseed(seed) produces
// exactly New(seed)'s stream), so fates stay byte-identical to the
// heap-chained form while the routing path stays at 0 allocs/round.
func decision2(seed, a, b uint64) rng.RNG {
	var r rng.RNG
	r.Reseed(seed)
	r.Reseed(r.DeriveSeed(a))
	r.Reseed(r.DeriveSeed(b))
	return r
}

func decision3(seed, a, b, c uint64) rng.RNG {
	r := decision2(seed, a, b)
	r.Reseed(r.DeriveSeed(c))
	return r
}

// edgeKey canonicalizes a directed (from, to) pair to its undirected edge
// label, so both directions of a link share one decision stream.
func edgeKey(from, to int) uint64 {
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	return uint64(lo)<<32 | uint64(hi)
}

// dirKey labels a directed (from, port) pair; with round and the packet's
// occurrence index it uniquely names one packet.
func dirKey(from, port int) uint64 {
	return uint64(from)<<20 | uint64(port)
}

// spanningTree returns the edgeKey set of a BFS tree of g rooted at 0.
func spanningTree(g *graph.Graph) map[uint64]bool {
	n := g.N()
	tree := make(map[uint64]bool, n-1)
	visited := make([]bool, n)
	queue := []int{0}
	visited[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for p := 0; p < g.Degree(v); p++ {
			w := g.Neighbor(v, p)
			if !visited[w] {
				visited[w] = true
				tree[edgeKey(v, w)] = true
				queue = append(queue, w)
			}
		}
	}
	return tree
}

// injector is the runtime of one Spec for one trial: every configured
// fault kind behind the one sim.Adversary. A kind left unconfigured has
// its rate, map or slice at zero/nil and costs one comparison per call.
// The simulator calls Fate and ObserveTraffic from its single-threaded
// router only.
type injector struct {
	loss, churn, delayProb         float64
	maxDelay                       int
	lossSeed, churnSeed, delaySeed uint64
	// crashAt is each node's crash round, the earlier of its sampled and
	// scheduled one (-1 = never). Nil when no crash is configured.
	crashAt []int
	// counts numbers the packets of one (round, sender, port) slot in send
	// order, so each packet of a multi-packet send draws its own loss and
	// delay streams; within a round the index depends only on how many
	// packets the slot has routed, so slots queried in any order agree.
	// Nil unless loss or delay is configured.
	countRound int
	counts     map[uint64]int
	// protected marks the edges churn never masks (the BFS tree under
	// +conn); down memoizes the round's churn decisions, which both
	// directions and every packet of a link re-ask — recomputing them would
	// put thousands of RNG constructions on the routing path. Nil unless
	// churn is configured.
	protected map[uint64]bool
	downRound int
	down      map[uint64]bool
	// The adaptive crash: every window rounds the k busiest nodes of the
	// window crash, until strikes windows have claimed victims (k = 0: off).
	k, window, strikes int
	fired              int     // windows that have claimed victims so far
	rounds             int     // rounds accumulated in the current window
	acc                []int64 // per-node traffic in the current window
	picks              []int   // reusable victim buffer handed to the simulator
}

// CrashRound implements sim.Adversary.
func (a *injector) CrashRound(v int) int {
	if v < 0 || v >= len(a.crashAt) {
		return -1
	}
	return a.crashAt[v]
}

// MaxDelay implements sim.Adversary.
func (a *injector) MaxDelay() int { return a.maxDelay }

// Fate implements sim.Adversary: loss, then churn, then delay. A dropped
// packet's delay is never drawn — the simulator discards it — and skipping
// it perturbs nothing, because every draw is a pure function of the
// packet's coordinates and the slot counter advances on every call.
func (a *injector) Fate(round, from, port, to int) (bool, int) {
	key := dirKey(from, port)
	var k uint64
	if a.counts != nil {
		if a.countRound != round {
			clear(a.counts)
			a.countRound = round
		}
		k = uint64(a.counts[key])
		a.counts[key]++
	}
	if a.loss > 0 {
		r := decision3(a.lossSeed, uint64(int64(round)), key, k)
		if r.Bernoulli(a.loss) {
			return true, 0
		}
	}
	if a.down != nil && a.churnDown(round, edgeKey(from, to)) {
		return true, 0
	}
	if a.maxDelay > 0 {
		r := decision3(a.delaySeed, uint64(int64(round)), key, k)
		if r.Bernoulli(a.delayProb) {
			return false, 1 + r.Intn(a.maxDelay)
		}
	}
	return false, 0
}

// churnDown reports whether the undirected edge is down in round: one
// (round, edge) decision silences the link in both directions.
func (a *injector) churnDown(round int, edge uint64) bool {
	if a.protected[edge] {
		return false
	}
	if a.downRound != round {
		clear(a.down)
		a.downRound = round
	}
	d, ok := a.down[edge]
	if !ok {
		r := decision2(a.churnSeed, uint64(int64(round)), edge)
		d = r.Bernoulli(a.churn)
		a.down[edge] = d
	}
	return d
}

// ObserveTraffic implements sim.Adversary: it accumulates the send counts
// over a window of rounds and at its end names the k busiest nodes to
// crash — a proxy for targeting the emerging leader, the adaptive model
// the static F1–F5 ladders cannot express. Ties break to the lower index;
// a node silent all window is never picked, and a window nobody sent in
// keeps its strike. The Init pseudo-round (round -1) is skipped: every
// protocol announces on Init, so it carries no targeting signal.
func (a *injector) ObserveTraffic(round int, sent []int) []int {
	if a.k == 0 || round < 0 || a.fired >= a.strikes {
		return nil
	}
	for v, s := range sent {
		a.acc[v] += int64(s)
	}
	a.rounds++
	if a.rounds < a.window {
		return nil
	}
	a.rounds = 0
	a.picks = a.picks[:0]
	for len(a.picks) < a.k {
		best, bestAcc := -1, int64(0)
		for v, t := range a.acc {
			if t > bestAcc {
				best, bestAcc = v, t
			}
		}
		if best < 0 {
			break // nobody (left) sent anything this window
		}
		a.acc[best] = 0 // claimed — also excludes it from further picks
		a.picks = append(a.picks, best)
	}
	clear(a.acc)
	if len(a.picks) == 0 {
		return nil
	}
	a.fired++
	return a.picks
}
