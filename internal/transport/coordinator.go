package transport

import (
	"fmt"

	"anonlead/internal/graph"
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
// Barrier, apply the stop rule. A node's Fail report or a failed control
// link ends the run with an error naming the node; the owner of the nodes
// then tears them down (closing the fabric unblocks any node still inside
// the failed round).
type Coordinator struct {
	*Barrier
	plane CoordPlane
	reps  []Report
	seen  []bool
}

// NewCoordinator builds the coordinator of a run on g over plane.
// congestBits <= 0 selects the simulator's default budget for g's size.
func NewCoordinator(g *graph.Graph, congestBits int, plane CoordPlane) *Coordinator {
	return &Coordinator{
		Barrier: NewBarrier(g, congestBits),
		plane:   plane,
		reps:    make([]Report, g.N()),
		seen:    make([]bool, g.N()),
	}
}

// Init folds the Init pseudo-round, which every node reports unprompted
// once its fabric is wired: slots charged, no base round — what sim.New
// does before round 0.
func (c *Coordinator) Init() error { return c.gather(false) }

// Step executes one round, mirroring sim.Network.Step: it returns false
// once every node has halted and nothing is in flight.
func (c *Coordinator) Step() (more bool, err error) {
	if c.ShouldStop() {
		return false, nil
	}
	if err := c.plane.Release(c.Round(), c.expect); err != nil {
		return false, err
	}
	return true, c.gather(true)
}

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
		}
		c.seen[node] = true
		c.reps[node] = r
	}
	c.FinishRound(counted, c.reps)
	return nil
}
