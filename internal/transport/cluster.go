package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
)

// Config parameterizes an in-process cluster. Semantics mirror sim.Config
// where the fields overlap, so the two backends are interchangeable
// behind the Runtime interface.
type Config struct {
	// Graph is the topology (required).
	Graph *graph.Graph
	// Seed is the run's root seed; machines are built from it exactly as
	// sim.New builds them (sim.NewStepper).
	Seed uint64
	// Transport selects the fabric backend (default ChanTransport{}).
	Transport Transport
	// Observer, when non-nil, is invoked after every counted round with
	// the same RoundInfo the simulator emits.
	Observer func(sim.RoundInfo)
}

// Cluster runs one election as real message-passing nodes inside this
// process: one driver goroutine per node over a Transport fabric, with
// the Coordinator (on the caller's goroutine) releasing rounds over
// in-process channels. It implements Runtime and sim.View, so the
// registry's Converged/Collect hooks and the public Run path drive it
// exactly like the simulator.
//
// Halts, crashes and metrics are the coordinator's ledger, embedded by
// pointer. Between Run calls and after a run completes,
// all drivers are parked waiting for a release, so View reads (machine
// outputs, halt flags) are quiescent and race-free. After a Run call fails
// the cluster is only good for Close.
type Cluster struct {
	*sim.Ledger
	g       *graph.Graph
	fabric  *Fabric
	coord   *Coordinator
	drivers []*driver
	plane   localPlane
	wg      sync.WaitGroup
	closed  bool
}

// localPlane is the in-process control plane: one start channel per node
// (closing it is the stop signal) and one shared report channel, buffered
// for a report per node so a driver never blocks on a coordinator that
// gave up on the round.
type localPlane struct {
	starts  []chan release
	reports chan Report
}

// release is one node's start message: the round and how many data frames
// it is owed from the round before.
type release struct{ round, expect int }

func (p localPlane) Release(round int, nodes, expect []int) error {
	for _, v := range nodes {
		p.starts[v] <- release{round, expect[v]}
	}
	return nil
}

func (p localPlane) Next() (int, Report, error) {
	r := <-p.reports
	return r.Node, r, nil
}

// localControl is node v's end of a localPlane.
type localControl struct {
	start   <-chan release
	reports chan<- Report
}

func (c localControl) WaitStart() (int, int, bool, error) {
	r, ok := <-c.start
	return r.round, r.expect, !ok, nil
}

func (c localControl) Report(r Report) error {
	c.reports <- r
	return nil
}

// NewCluster connects the fabric, builds one machine per node via factory,
// runs the Init pseudo-round, and parks every driver at the round-0
// barrier.
func NewCluster(ctx context.Context, cfg Config, factory sim.Factory, codec sim.WireCodec) (*Cluster, error) {
	g := cfg.Graph
	if g == nil || g.N() == 0 {
		return nil, errors.New("transport: config requires a non-empty graph")
	}
	if factory == nil {
		return nil, errors.New("transport: config requires a machine factory")
	}
	tr := cfg.Transport
	if tr == nil {
		tr = ChanTransport{}
	}
	fabric, err := tr.Connect(ctx, g, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("transport: connect %s: %w", tr.Name(), err)
	}

	n := g.N()
	c := &Cluster{
		g:       g,
		fabric:  fabric,
		drivers: make([]*driver, n),
		plane:   localPlane{starts: make([]chan release, n), reports: make(chan Report, n)},
	}
	c.coord = NewCoordinator(g, c.plane, cfg.Observer)
	c.Ledger = &c.coord.Ledger
	budget := c.Metrics().CongestBits
	for v := 0; v < n; v++ {
		st := sim.NewStepper(cfg.Seed, factory, v, g.Degree(v))
		c.drivers[v] = newDriver(v, st, codec, fabric.Links[v], budget)
		c.plane.starts[v] = make(chan release, 1)
	}
	for v, d := range c.drivers {
		cp := localControl{start: c.plane.starts[v], reports: c.plane.reports}
		d := d
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			d.run(cp)
		}()
	}
	if err := c.coord.Init(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// RunContext implements Runtime: up to rounds rounds, stopping early on
// global halt, context cancellation, or a transport failure (which, unlike
// the simulator, this backend can experience).
func (c *Cluster) RunContext(ctx context.Context, rounds int) (int, error) {
	return c.RunUntilContext(ctx, rounds, nil)
}

// RunUntilContext implements Runtime. done is evaluated between rounds,
// when every driver is parked at the barrier, so convergence predicates
// may read machine state without synchronization.
func (c *Cluster) RunUntilContext(ctx context.Context, maxRounds int, done func(completed int) bool) (int, error) {
	return sim.RunLoop(ctx, maxRounds, c.coord.Step, done)
}

// N implements sim.View.
func (c *Cluster) N() int { return c.g.N() }

// Graph implements sim.View.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Machine implements sim.View. Valid whenever the cluster is quiescent
// (between Run calls or after one returns).
func (c *Cluster) Machine(v int) sim.Machine { return c.drivers[v].stephr.Machine() }

// Close stops every driver and tears the fabric down. Idempotent.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, start := range c.plane.starts {
		close(start)
	}
	// Closing the fabric unblocks any driver still inside a failed round;
	// drivers parked at the barrier exit on the closed start channels.
	c.fabric.Close()
	c.wg.Wait()
}
