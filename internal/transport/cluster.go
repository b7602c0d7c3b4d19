package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

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

// Cluster runs elections as real message-passing nodes inside this
// process: one driver goroutine per node over a Transport fabric, with
// the Coordinator (on the caller's goroutine) releasing rounds over
// in-process channels. It implements Runtime and sim.View, so the
// registry's Converged/Collect hooks and the public Run path drive it
// exactly like the simulator.
//
// Halts, crashes and metrics are the coordinator's ledger, embedded by
// pointer. Between Run calls and after a run completes, every driver
// waits at the barrier for a release, so View reads (machine outputs,
// halt flags) are quiescent and race-free.
//
// The fabric outlives the run: NewCluster connects it once, and a run
// that halted everywhere can Park, which ends the run's goroutines and
// keeps the links, so Reset can start the next run on them without
// dialling any edge again. A parked cluster holds its links and no
// goroutine. After a Run call fails, or a Park is refused, the cluster is
// only good for Close.
type Cluster struct {
	*sim.Ledger
	g        *graph.Graph
	fabric   *Fabric
	coord    *Coordinator
	drivers  []*driver
	plane    localPlane
	wg       sync.WaitGroup // the drivers; each driver counts its own port readers
	parkWait time.Duration  // Park's bound on the drain: parkTimeout
	stopped  bool           // the start channels are closed: no driver runs another round
	parked   bool
	closed   bool
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
// runs the Init pseudo-round, and leaves every driver waiting at the round-0
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
	c := &Cluster{g: g, fabric: fabric, parkWait: parkTimeout}
	if err := c.start(cfg, factory, codec); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset starts a new run on a parked cluster's fabric, with cfg's seed
// and observer and machines from factory, whose payloads cross the links
// through codec (another protocol's than the last run's, possibly).
// cfg.Graph must be the cluster's graph, and cfg.Transport is ignored. A
// kept TCP fabric keeps the handshake tokens of the run that connected
// it: they authenticate edges only and never reach a machine. If the Init
// pseudo-round fails, the cluster is closed.
func (c *Cluster) Reset(cfg Config, factory sim.Factory, codec sim.WireCodec) error {
	switch {
	case !c.parked:
		return errors.New("transport: reset of a cluster that is not parked")
	case cfg.Graph != c.g:
		return errors.New("transport: reset on another graph")
	case factory == nil:
		return errors.New("transport: config requires a machine factory")
	}
	c.parked, c.stopped = false, false
	return c.start(cfg, factory, codec)
}

// start begins a run on the connected fabric: a fresh control plane and
// coordinator, one driver per node over a stepper drawn from cfg.Seed,
// and the Init pseudo-round. On failure the cluster is closed.
func (c *Cluster) start(cfg Config, factory sim.Factory, codec sim.WireCodec) error {
	g := c.g
	n := g.N()
	c.plane = localPlane{starts: make([]chan release, n), reports: make(chan Report, n)}
	c.coord = NewCoordinator(g, c.plane, cfg.Observer)
	c.Ledger = &c.coord.Ledger
	budget := c.Metrics().CongestBits
	if c.drivers == nil {
		c.drivers = make([]*driver, n)
	}
	for v, d := range c.drivers {
		st := sim.NewStepper(cfg.Seed, factory, v, g.Degree(v))
		if d == nil {
			c.drivers[v] = newDriver(v, st, codec, c.fabric.Links[v], budget)
		} else {
			// A parked driver keeps its buffers for the next run.
			d.stephr, d.codec = st, codec
		}
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
		return err
	}
	return nil
}

// RunContext implements Runtime: up to rounds rounds, stopping early on
// global halt, context cancellation, or a transport failure (which, unlike
// the simulator, this backend can experience).
func (c *Cluster) RunContext(ctx context.Context, rounds int) (int, error) {
	return c.RunUntilContext(ctx, rounds, nil)
}

// RunUntilContext implements Runtime. done is evaluated between rounds,
// when every driver waits at the barrier, so convergence predicates
// may read machine state without synchronization.
func (c *Cluster) RunUntilContext(ctx context.Context, maxRounds int, done func(completed int) bool) (int, error) {
	return sim.RunLoop(ctx, maxRounds, c.coord.Step, done)
}

// N implements sim.View.
func (c *Cluster) N() int { return c.g.N() }

// Graph implements sim.View.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Machine implements sim.View. Valid whenever the cluster is quiescent
// (between Run calls or after one returns), until Park drops the run's
// machines.
func (c *Cluster) Machine(v int) sim.Machine { return c.drivers[v].stephr.Machine() }

// parkTimeout bounds how long Park waits for the port readers to see
// their peers' PortClosed frames.
const parkTimeout = handshakeTimeout

// Park ends a run that halted everywhere and keeps the fabric for Reset.
// Every driver exits on its closed start channel, and every port reader
// returns at its peer's PortClosed frame, which a halting node writes on
// each of its links after its last data frame. Reading every port up to
// that frame is what guarantees that the next run's readers find nothing
// of this run in a link. Park reports false, and the cluster can only be
// closed, when the run did not halt everywhere, when a reader failed, or
// when a port delivered neither PortClosed nor a failure within
// parkTimeout; in that last case Park closes the cluster itself. A
// cluster that parks drops the run's machines, so View reads come before
// Park.
func (c *Cluster) Park() bool {
	if c.stopped || !c.AllHalted() {
		return false
	}
	c.stop()
	drained := make(chan struct{})
	go func() {
		c.wait()
		close(drained)
	}()
	timer := time.NewTimer(c.parkWait)
	defer timer.Stop()
	select {
	case <-drained:
	case <-timer.C:
		// Closing the fabric ends every read still pending.
		c.Close()
		<-drained
		return false
	}
	for _, d := range c.drivers {
		// Every reader has returned, so its failure, if any, is written.
		if d.in.err != nil {
			return false
		}
	}
	for _, d := range c.drivers {
		d.park()
	}
	c.parked = true
	return true
}

// stop closes the start channels, the stop signal of every driver waiting
// at the barrier. Idempotent.
func (c *Cluster) stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, start := range c.plane.starts {
		close(start)
	}
}

// wait returns once every driver and every port reader has returned.
func (c *Cluster) wait() {
	c.wg.Wait()
	for _, d := range c.drivers {
		d.readers.Wait()
	}
}

// Close stops every driver, tears the fabric down, and returns once every
// goroutine of the cluster has. It also ends a parked cluster. Idempotent.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.parked = false
	c.stop()
	// Closing the fabric unblocks any driver still inside a failed round
	// and any reader still waiting on a link; drivers waiting at the
	// barrier exit on the closed start channels.
	c.fabric.Close()
	c.wait()
}
