package core

import (
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// execStatus is a node's searching status within one cautious-broadcast
// execution.
type execStatus uint8

const (
	statusActive execStatus = iota + 1
	statusPassive
	statusStopped
)

// bcastExec is one node's state for one cautious-broadcast execution
// (paper Algorithms 2-4). A node holds one bcastExec per candidate whose
// broadcast reached it; the root (candidate) holds one for its own ID.
//
// Growth control: each node tracks a confirmed subtree count and a doubling
// threshold. Crossing the threshold triggers a (gated) size report to the
// parent and passivation; re-activation prompts flow back down from
// ancestors that absorbed the growth without crossing their own thresholds.
// A node whose threshold reaches the territory cap floods <stop>.
type bcastExec struct {
	source    uint64 // candidate ID identifying the execution
	isRoot    bool
	status    execStatus
	parent    int     // port toward parent; -1 at the root
	children  []child // confirmed children, in join order
	avail     []int   // ports not yet used in this execution (invite pool)
	threshold int     // next reporting/doubling threshold
	cap       int     // territory cap x·tmix·Φ (>= 2)
	confirmed int     // 1 + sum of child reports
	reported  int     // last size sent to the parent
	stopSent  bool
	// credit arms one invite. Credits are granted only by discrete
	// protocol events — joining/starting, an activate prompt, or a child
	// report absorbed while active — so the number of invites a node
	// sends is bounded by the number of threshold-change messages it
	// receives. This realizes Lemma 1's accounting ("a link is used a
	// constant number of times per change of the thresholds at its end
	// nodes"); inviting every active round instead would recruit Θ(n)
	// nodes on dense graphs and void the Õ(x·tmix) message bound.
	credit bool
	// grewThisRound marks children whose size report arrived this round,
	// for the prose's targeted re-activation rule.
	grewThisRound []int
	// ccSent and ccLast record the convergecast phase's send-on-change
	// state: whether an ID has climbed toward the parent, and which.
	ccSent bool
	ccLast uint64
}

// child is one confirmed child of a node in one execution.
type child struct {
	port   int
	size   int  // last reported subtree size
	active bool // activated since its last report
}

// newRootExec returns the execution state for the initiating candidate.
func newRootExec(source uint64, degree, cap int) bcastExec {
	e := bcastExec{
		source:    source,
		isRoot:    true,
		status:    statusActive,
		parent:    -1,
		threshold: 2, // a lone root trivially has confirmed=1; start above it
		cap:       cap,
		confirmed: 1,
		credit:    true,
	}
	e.avail = make([]int, degree)
	for p := range e.avail {
		e.avail[p] = p
	}
	return e
}

// newChildExec returns the execution state for a node that accepted an
// invite arriving on parentPort.
func newChildExec(source uint64, degree, parentPort, cap int) bcastExec {
	e := bcastExec{
		source:    source,
		status:    statusActive,
		parent:    parentPort,
		threshold: 1, // confirmed=1 >= 1 triggers the immediate join report
		cap:       cap,
		confirmed: 1,
		credit:    true,
	}
	e.avail = make([]int, 0, degree-1)
	for p := 0; p < degree; p++ {
		if p != parentPort {
			e.avail = append(e.avail, p)
		}
	}
	return e
}

// usedPort removes port from the invite pool (a port that carried any
// message of this execution may no longer receive a fresh invite).
func (e *bcastExec) usedPort(port int) {
	for i, p := range e.avail {
		if p == port {
			e.avail[i] = e.avail[len(e.avail)-1]
			e.avail = e.avail[:len(e.avail)-1]
			return
		}
	}
}

// childIndex returns the index of port in children, or -1.
func (e *bcastExec) childIndex(port int) int {
	for i := range e.children {
		if e.children[i].port == port {
			return i
		}
	}
	return -1
}

// handle processes one received message of this execution (Algorithm 3).
func (e *bcastExec) handle(port int, m bcMsg) {
	if e.status == statusStopped && m.kind != bcStop {
		return
	}
	e.usedPort(port)
	switch m.kind {
	case bcStop:
		e.status = statusStopped
	case bcActivate:
		if port == e.parent && e.status != statusStopped {
			e.status = statusActive
			e.credit = true
		}
	case bcDeactivate:
		if port == e.parent && e.status != statusStopped {
			e.status = statusPassive
		}
	case bcSize:
		i := e.childIndex(port)
		if i < 0 {
			e.children = append(e.children, child{port: port})
			i = len(e.children) - 1
		}
		// A reporting child passivated itself (prose rule); remember that
		// so the re-activation paths below actually fire.
		e.children[i].size, e.children[i].active = m.size, false
		e.grewThisRound = append(e.grewThisRound, i)
		e.recomputeConfirmed()
		// Absorbed growth re-arms one invite (keeps the expansion pump
		// running while staying within the per-link message accounting).
		if e.status == statusActive {
			e.credit = true
		}
	case bcInvite:
		// Invites for an execution we already belong to are non-tree
		// edges: the port is consumed (above) and nothing else happens.
	}
}

// recomputeConfirmed refreshes the confirmed subtree count.
func (e *bcastExec) recomputeConfirmed() {
	c := 1
	for i := range e.children {
		c += e.children[i].size
	}
	e.confirmed = c
}

// quiescent reports whether prepare, with no message handled since its last
// call, would send nothing, change nothing and draw nothing: stopped with
// the stop flood sent, or below both threshold and cap and — if active —
// with no armed invite and no child left to re-activate. (grewThisRound is
// empty after every prepare.)
func (e *bcastExec) quiescent() bool {
	if e.status == statusStopped {
		return e.stopSent
	}
	if e.threshold >= e.cap || e.confirmed >= e.threshold {
		return false
	}
	if e.status != statusActive {
		return true
	}
	if e.credit && len(e.avail) > 0 {
		return false
	}
	for i := range e.children {
		if !e.children[i].active {
			return false
		}
	}
	return true
}

// prepare emits this round's transmissions for the execution (Algorithm 4,
// with the prose's threshold-gated reporting; see package doc). Messages
// are allocated from the machine's msgs.
func (e *bcastExec) prepare(ctx *sim.Context, r *rng.RNG, msgs *sim.Msgs[bcMsg]) {
	ch := chanOf(e.source)
	send := func(port int, kind bcKind, size int) {
		ctx.Send(port, ch, msgs.New(bcMsg{kind: kind, source: e.source, size: size}))
	}

	// Territory cap: flood <stop> once through the local tree links.
	if e.threshold >= e.cap && e.status != statusStopped {
		e.status = statusStopped
	}
	switch {
	case e.status == statusStopped:
		if !e.stopSent {
			e.stopSent = true
			for i := range e.children {
				send(e.children[i].port, bcStop, 0)
			}
			if !e.isRoot && e.parent >= 0 {
				send(e.parent, bcStop, 0)
			}
		}

	case e.confirmed >= e.threshold:
		// Threshold crossed: report upward (non-roots), double past the
		// confirmed count, passivate children (the legitimacy wave).
		if !e.isRoot && e.confirmed > e.reported {
			send(e.parent, bcSize, e.confirmed)
			e.reported = e.confirmed
		}
		for e.threshold <= e.confirmed && e.threshold < e.cap {
			e.threshold *= 2
		}
		for i := range e.children {
			if c := &e.children[i]; c.active {
				send(c.port, bcDeactivate, 0)
				c.active = false
			}
		}
		if !e.isRoot {
			e.status = statusPassive // wait for the parent's re-activation
		}

	case e.status != statusActive:
		// Passive below threshold: re-activate children whose fresh growth
		// we absorbed without crossing (prose rule), but do not expand.
		for _, i := range e.grewThisRound {
			if c := &e.children[i]; !c.active {
				send(c.port, bcActivate, 0)
				c.active = true
			}
		}

	default:
		// Active and under threshold: re-activate passive children and, if
		// an invite credit is armed, invite one fresh random neighbor.
		for i := range e.children {
			if c := &e.children[i]; !c.active {
				send(c.port, bcActivate, 0)
				c.active = true
			}
		}
		if e.credit && len(e.avail) > 0 {
			e.credit = false
			i := r.Intn(len(e.avail))
			p := e.avail[i]
			e.avail[i] = e.avail[len(e.avail)-1]
			e.avail = e.avail[:len(e.avail)-1]
			send(p, bcInvite, 0)
		}
	}
	e.grewThisRound = e.grewThisRound[:0]
}
