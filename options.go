package anonlead

import (
	"fmt"

	"anonlead/internal/core"
	"anonlead/internal/transport"
)

// options aggregates all election tunables; zero values select the
// defaults documented on the With* constructors. The protocol scalars
// live in one shared core.ProtoConfig, the configuration currency the
// registry consumes — Run overlays the network's profiled quantities onto
// whatever the options left at zero, which is the single default-filling
// path every protocol goes through.
type options struct {
	seed      uint64
	transport Transport
	adversary *AdversarySpec
	observer  func(RoundInfo)
	proto     core.ProtoConfig
}

// Option customizes an election. Options are applied in order; later
// options win.
type Option func(*options)

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithSeed fixes the root random seed. Elections are deterministic in the
// seed; distinct seeds give independent elections. Default 0.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// Scheduler chooses nothing: every run steps a round's nodes in ascending
// order on the calling goroutine.
//
// Deprecated: every run steps on the calling goroutine. ROADMAP item 3
// removes the last caller, bench/.
type Scheduler int

const (
	// Deprecated: every run steps on the calling goroutine. ROADMAP item 3
	// removes the last caller, bench/.
	Sequential Scheduler = iota
	// Deprecated: every run steps on the calling goroutine. ROADMAP item 3
	// removes the last caller, bench/.
	WorkerPool
	// Deprecated: every run steps on the calling goroutine. ROADMAP item 3
	// removes the last caller, bench/.
	Actors
)

// String names the scheduler ("sequential", "workerpool", "actors").
//
// Deprecated: every run steps on the calling goroutine. ROADMAP item 3
// removes the last caller, bench/.
func (s Scheduler) String() string {
	switch s {
	case WorkerPool:
		return "workerpool"
	case Actors:
		return "actors"
	default:
		return "sequential"
	}
}

// WithScheduler ignores its argument.
//
// Deprecated: every run steps on the calling goroutine. ROADMAP item 3
// removes the last caller, bench/.
func WithScheduler(Scheduler) Option {
	return func(*options) {}
}

// Transport selects the execution substrate of a Run.
type Transport int

const (
	// TransportSim runs on the in-memory simulator: one process-local
	// router, no per-node goroutines. The default, and the only backend
	// that supports WithAdversary.
	TransportSim Transport = iota
	// TransportChan runs every node as a real message-passing goroutine;
	// links are in-process channels carrying framed messages.
	TransportChan
	// TransportPipe is TransportChan with links as synchronous byte
	// streams (net.Pipe): the full wire encoding without sockets.
	TransportPipe
	// TransportTCP connects the nodes over localhost TCP sockets,
	// established through a seed-derived anonymous handshake.
	TransportTCP
)

// backends maps each Transport onto its backend, nil for TransportSim.
var backends = [...]transport.Transport{
	TransportChan: transport.ChanTransport{},
	TransportPipe: transport.PipeTransport{},
	TransportTCP:  transport.TCPTransport{},
}

// check refuses a Transport outside backends, which Run indexes. Run,
// ProtoConfig and RunEpochs call it before anything runs.
func (t Transport) check() error {
	if t < 0 || int(t) >= len(backends) {
		return fmt.Errorf("anonlead: unknown transport %d", int(t))
	}
	return nil
}

// String names the backend ("sim", "chan", "pipe", "tcp").
func (t Transport) String() string {
	switch {
	case t == TransportSim:
		return "sim"
	case t.check() != nil:
		return "transport(?)"
	}
	return backends[t].Name()
}

// WithTransport selects the execution backend. With the default
// TransportSim the election runs on the in-memory simulator; the other
// backends run each node as an actual concurrent entity exchanging
// length-prefixed framed messages over per-port links, while a coordinator
// releases each round and closes it with the simulator's round-ledger
// code, enforcing CONGEST synchrony. Execution is bit-compatible across
// backends: the same seed elects the same leader in the same number of
// rounds with the same cost metrics. Non-simulator backends cannot be
// combined with WithAdversary: faults are injected by the simulator's
// router.
func WithTransport(t Transport) Option {
	return func(o *options) { o.transport = t }
}

// WithAdversary injects deterministic faults into the run as described by
// the spec (message loss, crash-stop, link churn, delivery jitter — see
// AdversarySpec). The adversary's random streams are split from the run
// seed under a dedicated label, so the protocol machines' randomness is
// untouched and a zero spec is byte-identical to no adversary at all.
func WithAdversary(spec AdversarySpec) Option {
	return func(o *options) { o.adversary = &spec }
}

// WithObserver streams per-round cost metrics to fn while the election
// runs: fn is invoked after every executed round from the simulator's
// single-threaded coordination path (so it needs no locking, but it also
// delays the round — keep it cheap). Observation is read-only: nothing fn
// does flows back into the election.
func WithObserver(fn func(RoundInfo)) Option {
	return func(o *options) { o.observer = fn }
}

// WithPresumedN misreports the network size to the protocol: the topology
// keeps its true size, only the size the nodes are told changes. This is
// the knowledge ablation of Dieudonné & Pelc ("Impact of Knowledge on
// Election Time in Anonymous Networks") — election degrades as presumed n
// drifts from the truth. Protocols that estimate n themselves (revocable)
// ignore it. Default: the true size.
func WithPresumedN(n int) Option {
	return func(o *options) { o.proto.N = n }
}

// WithConstant sets the analysis constant c scaling candidate rate, walk
// length and broadcast length (paper Section 4, "sufficiently large c")
// for every protocol that samples candidates. Default 2.
func WithConstant(c float64) Option {
	return func(o *options) { o.proto.C = c }
}

// WithWalks overrides the number x of random walks per candidate in the
// ire/explicit protocols. Default: the paper's x = √(n·log n/(Φ·tmix)).
func WithWalks(x int) Option {
	return func(o *options) { o.proto.X = x }
}

// WithEpsilon sets the paper's ε ∈ (0,1] for the revocable protocol.
// Default 0.5.
func WithEpsilon(eps float64) Option {
	return func(o *options) { o.proto.Epsilon = eps }
}

// WithIsoperimetric provides a known lower bound on i(G) to the revocable
// protocol, selecting the Theorem 3 diffusion schedule instead of the
// fully blind Corollary 1 schedule.
func WithIsoperimetric(iso float64) Option {
	return func(o *options) { o.proto.Iso = iso }
}

// WithCalibration scales the revocable protocol's certification count f(k)
// and diffusion length r(k); 1,1 is the faithful schedule. Calibrated runs
// keep success rates while making larger networks simulable.
func WithCalibration(fMult, rMult float64) Option {
	return func(o *options) { o.proto.FMult, o.proto.RMult = fMult, rMult }
}

// WithProtoConfig overlays a protocol configuration wholesale, replacing
// every protocol scalar set by earlier options; whatever it leaves at zero
// Run defaults as usual. Its parameter type lives in an internal package,
// so it is callable only from inside this module: the experiment harness
// hands its per-cell tunables over in the registry's own currency.
// External callers compose the individual With* options instead.
func WithProtoConfig(pc core.ProtoConfig) Option {
	return func(o *options) { o.proto = pc }
}
