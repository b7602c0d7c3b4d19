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
	// Release starts round on every node, telling node v that expect[v]
	// data frames are addressed to it from the previous round.
	Release(round int, expect []int) error
	// Next blocks for the next report from any node. node names the
	// sender even when its control link failed or carried garbage.
	Next() (node int, r Report, err error)
}

// Coordinator runs the round discipline over a control plane: release a
// round, gather exactly one report per node, fold them into the embedded
// sim.Ledger — the one the simulator's router folds its sends into — and
// apply its stop rule. Beyond the ledger it keeps only what the wire needs:
// the graph, to turn a sender's port into its receiver, and how many
// frames each node is owed, which the next release hands out so no node
// has to hear from every link. A node's Fail report, a report naming a
// port the node does not have, or a failed control link ends the run with
// an error naming the node; the owner of the nodes then tears them down
// (closing the fabric unblocks any node still inside the failed round).
type Coordinator struct {
	sim.Ledger
	g      *graph.Graph
	expect []int // frames sent to each node in the last folded round
	plane  CoordPlane
	reps   []Report
	seen   []bool
}

// NewCoordinator builds the coordinator of a run on g over plane.
// congestBits <= 0 selects the simulator's default budget for g's size.
func NewCoordinator(g *graph.Graph, congestBits int, plane CoordPlane) *Coordinator {
	n := g.N()
	return &Coordinator{
		Ledger: sim.NewLedger(n, congestBits),
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
func (c *Coordinator) Init() error { return c.gather(false) }

// Step executes one round, the wire's sim.Network.Step: it returns false
// once the ledger's stop rule holds.
func (c *Coordinator) Step() (more bool, err error) {
	if c.Done() {
		return false, nil
	}
	if err := c.plane.Release(c.Round(), c.expect); err != nil {
		return false, err
	}
	return true, c.gather(true)
}

// gather collects one report per node, then folds them in node order.
func (c *Coordinator) gather(counted bool) error {
	clear(c.seen)
	for range c.reps {
		node, r, err := c.plane.Next()
		switch {
		case err != nil:
			return fmt.Errorf("transport: node %d: control plane: %w", node, err)
		case r.Fail != "":
			return fmt.Errorf("transport: node %d: %s", node, r.Fail)
		case r.Node != node:
			return fmt.Errorf("transport: node %d: reported as node %d", node, r.Node)
		case c.seen[node]:
			return fmt.Errorf("transport: node %d: second report for round %d", node, c.Round())
		case len(r.PerPort) > c.g.Degree(node):
			return fmt.Errorf("transport: node %d: report names port %d of %d", node, len(r.PerPort)-1, c.g.Degree(node))
		}
		c.seen[node] = true
		c.reps[node] = r
	}
	maxSlots, maxChannels := 0, 0
	clear(c.expect)
	for v := range c.reps {
		r := &c.reps[v]
		if r.Halted {
			c.Stop(v)
		}
		for p, cnt := range r.PerPort {
			w := c.g.Neighbor(v, p)
			c.expect[w] += int(cnt)
			c.Deliver(w, int(cnt))
		}
		c.Sent(r.Msgs, r.Bits)
		maxSlots = max(maxSlots, r.MaxSlots)
		maxChannels = max(maxChannels, r.MaxChannels)
	}
	c.CloseRound(counted, maxSlots, maxChannels)
	return nil
}
