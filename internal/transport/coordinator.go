package transport

import (
	"fmt"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
)

// CoordPlane is the coordinator's end of the control plane, the mirror of
// the ControlPlane each node holds: round releases out, reports in. The
// in-process Cluster implements it with channels, cmd/ledist over its
// control connections. Used from the coordinator's goroutine only.
type CoordPlane interface {
	// Release starts round on each of nodes (ascending, never empty),
	// telling node v that expect[v] data frames are addressed to it from
	// the previous round. Every other node stays parked.
	Release(round int, nodes, expect []int) error
	// Next blocks for the next report from any node. node names the
	// sender even when its control link failed or carried garbage.
	Next() (node int, r Report, err error)
}

// Coordinator runs the round discipline over a control plane: release the
// round's visit set, gather exactly one report per released node, fold
// them into the embedded sim.Ledger — the one the simulator's router folds
// its sends into — and file each node in the sim.VisitSet the simulator
// steps by. A round whose set is empty closes without touching the plane.
// Beyond the ledger and the set it keeps only what the wire needs: the
// graph, to turn a sender's port into its receiver, and how many frames
// each node is owed, which the next release hands out so no node has to
// hear from every link. A node's Fail report, a report from a node not
// released, a report naming a port the node does not have, or a failed
// control link ends the run with an error naming the node; the owner of
// the nodes then tears them down (closing the fabric unblocks any node
// still inside the failed round).
type Coordinator struct {
	sim.Ledger
	visits sim.VisitSet
	g      *graph.Graph
	expect []int // frames sent to each node in the last folded round
	plane  CoordPlane
	nodes  []int // the nodes released this round, ascending
	reps   []Report
	seen   []bool
}

// NewCoordinator builds the coordinator of a run on g over plane. Its
// ledger charges the simulator's default budget for g's size,
// sim.DefaultCongestBits; observer, when non-nil, sees every counted round
// (sim.NewLedger).
func NewCoordinator(g *graph.Graph, plane CoordPlane, observer func(sim.RoundInfo)) *Coordinator {
	n := g.N()
	return &Coordinator{
		Ledger: sim.NewLedger(n, sim.DefaultCongestBits(n), observer),
		visits: sim.NewVisitSet(n),
		g:      g,
		expect: make([]int, n),
		plane:  plane,
		reps:   make([]Report, n),
		seen:   make([]bool, n),
	}
}

// Init folds the Init pseudo-round, which every node reports unprompted
// once its fabric is wired: slots charged, no base round — what sim.New
// does before round 0.
func (c *Coordinator) Init() error {
	c.nodes = c.visits.AppendNodes(c.nodes[:0])
	return c.gather(-1)
}

// Step executes one round, the wire's sim.Network.Step: it returns false
// once the ledger's stop rule holds.
func (c *Coordinator) Step() (more bool, err error) {
	if c.Done() {
		return false, nil
	}
	round := c.Round()
	c.nodes = c.visits.AppendNodes(c.nodes[:0])
	if len(c.nodes) == 0 {
		// Nobody has mail or a due promise: the round passes unreleased.
		c.visits.Advance(round)
		c.CloseRound(true)
		return true, nil
	}
	if err := c.plane.Release(round, c.nodes, c.expect); err != nil {
		return false, err
	}
	return true, c.gather(round)
}

// gather collects one report per released node, then folds them in node
// order. round is the round they ran (-1 for Init).
func (c *Coordinator) gather(round int) error {
	clear(c.seen)
	for range c.nodes {
		node, r, err := c.plane.Next()
		switch {
		case err != nil:
			return fmt.Errorf("transport: node %d: control plane: %w", node, err)
		case r.Fail != "":
			return fmt.Errorf("transport: node %d: %s", node, r.Fail)
		case r.Node != node:
			return fmt.Errorf("transport: node %d: reported as node %d", node, r.Node)
		case !c.visits.Has(node):
			return fmt.Errorf("transport: node %d: report for round %d, which did not release it", node, round)
		case c.seen[node]:
			return fmt.Errorf("transport: node %d: second report for round %d", node, round)
		case len(r.PerPort) > c.g.Degree(node):
			return fmt.Errorf("transport: node %d: report names port %d of %d", node, len(r.PerPort)-1, c.g.Degree(node))
		}
		c.seen[node] = true
		c.reps[node] = r
	}
	clear(c.expect)
	for _, v := range c.nodes {
		r := &c.reps[v]
		if r.Halted {
			c.Stop(v)
		}
		charge := sim.Charge{Bits: r.Bits, Slots: r.MaxSlots, Channels: r.MaxChannels}
		for p, cnt := range r.PerPort {
			if cnt == 0 {
				continue
			}
			w := c.g.Neighbor(v, p)
			c.expect[w] += int(cnt)
			if c.Deliver(w, int(cnt)) {
				c.visits.Mail(w)
			}
			charge.Messages += int64(cnt)
		}
		c.Sent(charge)
		c.visits.File(v, round, r.Wake, c.Halted(v))
	}
	c.visits.Advance(round)
	c.CloseRound(round >= 0)
	return nil
}
