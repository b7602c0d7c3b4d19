package obs

import "math/bits"

// RoundProfile is the deterministic per-cell summary of round-resolved
// behaviour: how many rounds saw how many messages, when the message peak
// happened, and how halting progressed. All fields are integers derived
// from the simulator's cumulative Metrics deltas, so a profile is a pure
// function of (graph, protocol, seed) and two profiles merge by addition.
//
// MsgRounds[b] counts rounds whose per-round message total fell in
// bucket b: bucket 0 is exactly 0 messages, bucket b >= 1 is
// [2^(b-1), 2^b). HaltRounds counts rounds by newly-halted nodes in the
// same bucket scheme. The bounds are fixed powers of two rather than
// data-dependent ones, which is what makes profiles mergeable by plain
// elementwise addition and byte-identical however a sweep splits its
// trials across workers. Trailing zero
// buckets are trimmed before export.
type RoundProfile struct {
	Rounds     int64   `json:"rounds"`
	TotalMsgs  int64   `json:"total_msgs"`
	PeakMsgs   int64   `json:"peak_msgs"`
	PeakRound  int64   `json:"peak_round"` // first round reaching PeakMsgs, 1-based within its trial; 0 if empty
	MsgRounds  []int64 `json:"msg_rounds,omitempty"`
	HaltRounds []int64 `json:"halt_rounds,omitempty"`
}

// Bucket returns the profile bucket index for a per-round value:
// 0 for 0, and 1+floor(log2(v)) for v >= 1.
func Bucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // v in [2^(k-1), 2^k) => Len64 = k => bucket k
}

func bump(buckets []int64, v int64) []int64 {
	b := Bucket(v)
	for len(buckets) <= b {
		buckets = append(buckets, 0)
	}
	buckets[b]++
	return buckets
}

// ObserveRound records one round's deltas: msgs messages sent during the
// round and halted nodes newly halted by its end.
func (p *RoundProfile) ObserveRound(msgs, halted int64) {
	p.Rounds++
	p.TotalMsgs += msgs
	if p.PeakRound == 0 || msgs > p.PeakMsgs {
		p.PeakMsgs = msgs
		p.PeakRound = p.Rounds
	}
	p.MsgRounds = bump(p.MsgRounds, msgs)
	if halted > 0 {
		p.HaltRounds = bump(p.HaltRounds, halted)
	}
}

// Merge adds q into p elementwise. Peak ties keep p's (earlier-merged)
// round, so merging trials in trial order is deterministic.
func (p *RoundProfile) Merge(q *RoundProfile) {
	if q == nil {
		return
	}
	if q.PeakRound != 0 && (p.PeakRound == 0 || q.PeakMsgs > p.PeakMsgs) {
		p.PeakMsgs = q.PeakMsgs
		p.PeakRound = q.PeakRound
	}
	p.Rounds += q.Rounds
	p.TotalMsgs += q.TotalMsgs
	for len(p.MsgRounds) < len(q.MsgRounds) {
		p.MsgRounds = append(p.MsgRounds, 0)
	}
	for i, v := range q.MsgRounds {
		p.MsgRounds[i] += v
	}
	for len(p.HaltRounds) < len(q.HaltRounds) {
		p.HaltRounds = append(p.HaltRounds, 0)
	}
	for i, v := range q.HaltRounds {
		p.HaltRounds[i] += v
	}
}

// Clone returns a deep copy (nil-safe).
func (p *RoundProfile) Clone() *RoundProfile {
	if p == nil {
		return nil
	}
	q := *p
	q.MsgRounds = append([]int64(nil), p.MsgRounds...)
	q.HaltRounds = append([]int64(nil), p.HaltRounds...)
	return &q
}

// RoundObserver adapts the simulator's cumulative per-round observer feed
// (total messages and total halted nodes so far) into per-round deltas on
// a RoundProfile. The returned function is the body of an
// anonlead.WithObserver callback; prev* live in the closure, so one
// observer serves exactly one trial.
func (p *RoundProfile) RoundObserver() func(cumMsgs, cumHalted int64) {
	var prevMsgs, prevHalted int64
	return func(cumMsgs, cumHalted int64) {
		p.ObserveRound(cumMsgs-prevMsgs, cumHalted-prevHalted)
		prevMsgs, prevHalted = cumMsgs, cumHalted
	}
}
