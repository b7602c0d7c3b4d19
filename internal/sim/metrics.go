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

// CloseRound charges one routed round given its maxima over links of the
// slot charge and distinct channel count (LinkLoads.Max, or the max over
// node reports of it). counted=false is the Init pseudo-round, which
// charges its slots but neither a round nor the one-slot minimum.
func (m *Metrics) CloseRound(counted bool, maxSlots, maxChannels int) {
	if maxSlots > m.MaxLinkSlots {
		m.MaxLinkSlots = maxSlots
	}
	if maxChannels > m.MaxChannels {
		m.MaxChannels = maxChannels
	}
	charge := int64(maxSlots)
	if counted {
		m.Rounds++
		if charge < 1 {
			charge = 1
		}
	}
	m.ChargedRounds += charge
}

// String renders the metrics compactly for logs and CLI output.
func (m Metrics) String() string {
	return fmt.Sprintf("rounds=%d charged=%d msgs=%d bits=%d maxSlots=%d budget=%db",
		m.Rounds, m.ChargedRounds, m.Messages, m.Bits, m.MaxLinkSlots, m.CongestBits)
}
