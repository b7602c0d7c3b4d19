package sim

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

// Ledger is the round ledger every backend closes its rounds through: the
// cost accounting, the run state the stop rule reads, and the round
// observer. sim.Network folds its router's sends into it, the transport
// coordinator its node reports, so the two agree on what a run costs and
// when it ends because they share these rules, not because two copies of
// them do. Both meter a sender's round with LinkLoads.Charge — the router
// centrally, a node driver over its own ports — and hand it to Sent.
//
// A round is folded sender by sender in ascending node order: Stop(v) when
// v reports itself halted, Sent with v's Charge and Deliver for each of v's
// sends, then CloseRound. The order matters because a packet counts as in
// flight only if its receiver has not stopped by the time its sender is
// folded: node v's sends see the halts of every w <= v from this round, but
// not those of w > v. One quirk follows, and every backend must keep it:
// when the last nodes halt in the round they send in, a packet to a
// higher-numbered node halting in that same round still counts as in
// flight, so the run closes one more (drain) round, in which nobody steps,
// before Done reports true.
type Ledger struct {
	metrics  Metrics
	halted   []bool
	stopped  int    // nodes with halted set, each counted once
	crashed  []bool // adversary crash-stops; nil until a run has an adversary
	pending  int    // packets delivered so far in the round being folded
	inflight int    // packets delivered in the last closed round
	slots    int    // the round's maxima over its senders' charges
	channels int
	observer func(RoundInfo)
}

// NewLedger returns the ledger of an n-node run. congestBits <= 0 selects
// DefaultCongestBits(n). observer, when non-nil, is called after every
// counted round (see Config.Observer).
func NewLedger(n, congestBits int, observer func(RoundInfo)) Ledger {
	l := Ledger{halted: make([]bool, n)}
	l.reset(congestBits, observer)
	return l
}

// reset clears the ledger for a new run over the same nodes, keeping its
// memory.
func (l *Ledger) reset(congestBits int, observer func(RoundInfo)) {
	if congestBits <= 0 {
		congestBits = DefaultCongestBits(len(l.halted))
	}
	clear(l.halted)
	clear(l.crashed)
	*l = Ledger{metrics: Metrics{CongestBits: congestBits}, halted: l.halted, crashed: l.crashed, observer: observer}
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

// Sent counts one sender's round as transmitted, whatever the fate of its
// payloads, and folds its link charge into the round's maxima.
func (l *Ledger) Sent(c Charge) {
	l.metrics.Messages += c.Messages
	l.metrics.Bits += c.Bits
	l.slots = max(l.slots, c.Slots)
	l.channels = max(l.channels, c.Channels)
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

// CloseRound charges the round just folded with its senders' worst link,
// makes its deliveries the in-flight count Done reads, and hands a counted
// round to the observer. counted=false is the Init pseudo-round, which
// charges its slots but neither a round nor the one-slot minimum, and is
// not observed.
func (l *Ledger) CloseRound(counted bool) {
	m := &l.metrics
	m.MaxLinkSlots = max(m.MaxLinkSlots, l.slots)
	m.MaxChannels = max(m.MaxChannels, l.channels)
	charge := int64(l.slots)
	if counted {
		m.Rounds++
		charge = max(charge, 1)
	}
	m.ChargedRounds += charge
	l.inflight, l.pending = l.pending, 0
	l.slots, l.channels = 0, 0
	if counted && l.observer != nil {
		l.observer(RoundInfo{Round: m.Rounds - 1, Halted: l.stopped, Metrics: *m})
	}
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

// Metrics returns a snapshot of the accumulated cost accounting.
func (l *Ledger) Metrics() Metrics { return l.metrics }

// Round returns the next round to execute: the count of counted rounds so
// far.
func (l *Ledger) Round() int { return l.metrics.Rounds }
