package core

import (
	"testing"
	"testing/quick"

	"anonlead/internal/rng"
)

// TestBcastExecInvariantsUnderRandomTraffic drives a bcastExec with random
// (possibly adversarial) message sequences and checks its structural
// invariants after every event:
//
//   - confirmed = 1 + sum of child sizes
//   - the invite pool never contains a child port or the parent port
//   - children are unique ports
//   - threshold is positive and never above 2x the cap
//   - a stopped execution stays stopped
//
// This is the paper's most intricate per-node state (Algorithms 2-4);
// protocol-level tests exercise only reachable traffic, this one also
// covers stray and duplicated messages.
func TestBcastExecInvariantsUnderRandomTraffic(t *testing.T) {
	root := rng.New(2024)
	check := func(seed uint64) bool {
		r := root.Split(seed)
		degree := 2 + r.Intn(6)
		cap := 2 + r.Intn(30)
		var e bcastExec
		parentPort := -1
		if r.Coin() {
			e = newRootExec(7, degree, cap)
		} else {
			parentPort = r.Intn(degree)
			e = newChildExec(7, degree, parentPort, cap)
		}
		wasStopped := false
		for step := 0; step < 60; step++ {
			port := r.Intn(degree)
			var msg bcMsg
			switch r.Intn(5) {
			case 0:
				msg = bcMsg{kind: bcInvite, source: 7}
			case 1:
				msg = bcMsg{kind: bcSize, source: 7, size: 1 + r.Intn(10)}
			case 2:
				msg = bcMsg{kind: bcActivate, source: 7}
			case 3:
				msg = bcMsg{kind: bcDeactivate, source: 7}
			default:
				msg = bcMsg{kind: bcStop, source: 7}
			}
			e.handle(port, msg)

			if wasStopped && e.status != statusStopped {
				return false
			}
			if e.status == statusStopped {
				wasStopped = true
			}
			sum := 1
			for _, c := range e.children {
				sum += c.size
			}
			if e.confirmed != sum {
				return false
			}
			if e.threshold < 1 || (e.threshold > 2*e.cap && e.threshold > 2) {
				return false
			}
			seen := map[int]bool{}
			for _, c := range e.children {
				if seen[c.port] {
					return false
				}
				seen[c.port] = true
			}
			for _, a := range e.avail {
				if seen[a] {
					return false
				}
				if !e.isRoot && a == parentPort {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBcastExecAvailShrinksMonotonically: ports are consumed, never
// returned — the paper's "not sent/received a message so far" pool.
func TestBcastExecAvailShrinksMonotonically(t *testing.T) {
	root := rng.New(77)
	if err := quick.Check(func(seed uint64) bool {
		r := root.Split(seed)
		degree := 3 + r.Intn(5)
		e := newRootExec(1, degree, 16)
		prev := len(e.avail)
		for i := 0; i < 30; i++ {
			e.handle(r.Intn(degree), bcMsg{kind: bcKind(1 + r.Intn(5)), source: 1, size: 1})
			if len(e.avail) > prev {
				return false
			}
			prev = len(e.avail)
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
