package sim

import "fmt"

// Metrics aggregates the cost accounting for a run. All counters are totals
// since network construction.
type Metrics struct {
	// Rounds is the number of logical synchronous rounds executed.
	Rounds int
	// ChargedRounds is the CONGEST-model time: per logical round, the
	// maximum over links of the number of budget-sized slots needed to
	// serialize that link's traffic (distinct channels never share a
	// slot), at least 1 per executed round; the Init transmission batch
	// charges one additional round when machines send from Init. This is
	// how super-round multiplexing (paper Section 4) and bit-by-bit
	// potential transmission (Section 5.3 time analysis) enter the time
	// complexity.
	ChargedRounds int64
	// Messages is the number of point-to-point payloads delivered.
	Messages int64
	// Bits is the total payload bits delivered.
	Bits int64
	// CongestBits is the per-link per-round budget B used for slotting.
	CongestBits int
	// MaxLinkSlots is the worst per-link slot count observed in any round
	// (the peak multiplexing depth).
	MaxLinkSlots int
	// MaxChannels is the maximum number of distinct channels active on a
	// single link in a single round.
	MaxChannels int
	// Dropped counts packets destroyed by the configured adversary (loss
	// or link churn). Dropped packets still count in Messages/Bits and in
	// link-slot charging: the sender transmitted them. Always 0 without an
	// adversary.
	Dropped int64
	// Delayed counts packets the adversary deferred past their normal
	// next-round delivery. Always 0 without an adversary.
	Delayed int64
	// Crashes counts nodes crash-stopped by the adversary.
	Crashes int
}

// String renders the metrics compactly for logs and CLI output.
func (m Metrics) String() string {
	return fmt.Sprintf("rounds=%d charged=%d msgs=%d bits=%d maxSlots=%d budget=%db",
		m.Rounds, m.ChargedRounds, m.Messages, m.Bits, m.MaxLinkSlots, m.CongestBits)
}

// Ledger is the round ledger every backend closes its rounds through: the
// cost accounting plus the run state the stop rule reads. sim.Network folds
// its router's sends into it, the transport coordinator its node reports,
// so the two agree on when a run ends because they share these rules, not
// because two copies of them do.
//
// A round is folded sender by sender in ascending node order: Stop(v) when
// v reports itself halted, then Deliver for each of v's sends, then
// CloseRound. The order matters because a packet counts as in flight only
// if its receiver has not stopped by the time its sender is folded: node
// v's sends see the halts of every w <= v from this round, but not those of
// w > v. One quirk follows, and every backend must keep it: when the last
// nodes halt in the round they send in, a packet to a higher-numbered node
// halting in that same round still counts as in flight, so the run closes
// one more (drain) round, in which nobody steps, before Done reports true.
type Ledger struct {
	metrics  Metrics
	halted   []bool
	stopped  int    // nodes with halted set, each counted once
	crashed  []bool // adversary crash-stops; nil without an adversary
	pending  int    // packets delivered so far in the round being folded
	inflight int    // packets delivered in the last closed round
}

// NewLedger returns the ledger of an n-node run. congestBits <= 0 selects
// DefaultCongestBits(n).
func NewLedger(n, congestBits int) Ledger {
	if congestBits <= 0 {
		congestBits = DefaultCongestBits(n)
	}
	return Ledger{metrics: Metrics{CongestBits: congestBits}, halted: make([]bool, n)}
}

// Stop marks node v halted, counting it once.
func (l *Ledger) Stop(v int) {
	if !l.halted[v] {
		l.halted[v] = true
		l.stopped++
	}
}

// Deliver applies the delivery rule to cnt packets addressed to node w:
// packets to a stopped node are dropped (false), the rest are in flight.
func (l *Ledger) Deliver(w, cnt int) bool {
	if l.halted[w] {
		return false
	}
	l.pending += cnt
	return true
}

// Sent counts msgs payloads of bits bits in total as transmitted, whatever
// their fate.
func (l *Ledger) Sent(msgs, bits int64) {
	l.metrics.Messages += msgs
	l.metrics.Bits += bits
}

// Crash crash-stops node v (once): it is stopped like a halt and counted in
// Metrics.Crashes. Only a ledger whose run has an adversary can crash.
func (l *Ledger) Crash(v int) {
	if !l.crashed[v] {
		l.crashed[v] = true
		l.Stop(v)
		l.metrics.Crashes++
	}
}

// CloseRound charges the round just folded given its maxima over links of
// the slot charge and distinct channel count (LinkLoads.Max, or the max
// over node reports of it), and makes its deliveries the in-flight count
// Done reads. counted=false is the Init pseudo-round, which charges its
// slots but neither a round nor the one-slot minimum.
func (l *Ledger) CloseRound(counted bool, maxSlots, maxChannels int) {
	m := &l.metrics
	m.MaxLinkSlots = max(m.MaxLinkSlots, maxSlots)
	m.MaxChannels = max(m.MaxChannels, maxChannels)
	charge := int64(maxSlots)
	if counted {
		m.Rounds++
		charge = max(charge, 1)
	}
	m.ChargedRounds += charge
	l.inflight, l.pending = l.pending, 0
}

// Done is the stop rule: every node has halted and nothing is in flight.
func (l *Ledger) Done() bool { return l.inflight == 0 && l.AllHalted() }

// Halted reports whether node v has stopped (halted or crashed).
func (l *Ledger) Halted(v int) bool { return l.halted[v] }

// AllHalted reports whether every node has stopped.
func (l *Ledger) AllHalted() bool { return l.stopped == len(l.halted) }

// Crashed reports whether node v was crash-stopped by an adversary (a
// crashed node also reports Halted).
func (l *Ledger) Crashed(v int) bool { return l.crashed != nil && l.crashed[v] }

// CrashedCount returns the number of crash-stopped nodes so far.
func (l *Ledger) CrashedCount() int { return l.metrics.Crashes }

// Metrics returns a snapshot of the accumulated cost accounting.
func (l *Ledger) Metrics() Metrics { return l.metrics }

// Round returns the next round to execute: the count of counted rounds so
// far.
func (l *Ledger) Round() int { return l.metrics.Rounds }

// Info is the observer's snapshot after round.
func (l *Ledger) Info(round int) RoundInfo {
	return RoundInfo{Round: round, Halted: l.stopped, Metrics: l.metrics}
}
