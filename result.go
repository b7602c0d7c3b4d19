package anonlead

import "anonlead/internal/sim"

// Result reports the outcome and cost of an election.
type Result struct {
	// Leaders lists the node indices that raised the leader flag. The
	// indices are simulation-side observability only: the nodes
	// themselves remain anonymous.
	Leaders []int
	// Unique reports whether exactly one leader was elected.
	Unique bool
	// Rounds is the number of synchronous rounds simulated.
	Rounds int
	// ChargedRounds is the CONGEST time: link traffic serialized into
	// O(log n)-bit slots.
	ChargedRounds int64
	// Messages is the number of point-to-point messages sent.
	Messages int64
	// Bits is the total number of payload bits sent.
	Bits int64
	// Dropped counts packets destroyed by a WithAdversary fault policy
	// (loss or link churn). Dropped packets still count in Messages, Bits
	// and CONGEST charging: the sender transmitted them. Always 0 on
	// fault-free runs.
	Dropped int64
	// Delayed counts packets the adversary deferred past their normal
	// next-round delivery. Always 0 on fault-free runs.
	Delayed int64
	// Crashed counts nodes crash-stopped by the adversary. Crashed nodes
	// are excluded from Leaders. Always 0 on fault-free runs.
	Crashed int
}

// LeaderCount returns the number of elected leaders.
func (r Result) LeaderCount() int { return len(r.Leaders) }

// Certificate is a revocable leader certificate: the leader's random ID
// compounded with the size estimate that was in force when it was chosen.
// Larger Estimate wins; ties break toward smaller ID.
type Certificate struct {
	ID       uint64
	Estimate uint64
}

// Less reports whether c loses to other under the paper's certificate
// order (other is a strictly better leader claim).
func (c Certificate) Less(other Certificate) bool {
	if c.Estimate != other.Estimate {
		return c.Estimate < other.Estimate
	}
	return c.ID > other.ID
}

// fillMetrics copies simulator accounting into a Result, including the
// fault counters, so fault-injected public runs are observable without
// the experiment harness.
func fillMetrics(r *Result, m sim.Metrics) {
	r.ChargedRounds = m.ChargedRounds
	r.Messages = m.Messages
	r.Bits = m.Bits
	r.Dropped = m.Dropped
	r.Delayed = m.Delayed
	r.Crashed = m.Crashes
}
