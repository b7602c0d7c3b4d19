package anonlead

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"anonlead/internal/adversary"
	_ "anonlead/internal/baseline" // registers floodmax/allflood/walknotify
	"anonlead/internal/core"
	"anonlead/internal/sim"
	"anonlead/internal/transport"
)

// Canonical names of the registered protocols (see the package docs for
// what each one runs). Run also accepts the legacy alias "flood" for
// ProtoFloodMax.
const (
	ProtoIRE        = "ire"
	ProtoExplicit   = "explicit"
	ProtoRevocable  = "revocable"
	ProtoFloodMax   = "floodmax"
	ProtoAllFlood   = "allflood"
	ProtoWalkNotify = "walknotify"
)

// Sentinel errors Run wraps into its failures; test with errors.Is. When
// either is returned, the accompanying Outcome still carries the rounds
// executed and the full cost accounting of the partial run.
var (
	// ErrNotHalted reports a fixed-budget protocol that failed to halt
	// within its round budget.
	ErrNotHalted = errors.New("protocol did not halt within its round budget")
	// ErrNotStabilized reports a revocable election that failed to reach
	// the Theorem 3 stabilization point within its round cap.
	ErrNotStabilized = errors.New("revocable election did not stabilize")
)

var errEmptyGraph = errors.New("anonlead: network requires a non-empty graph")

// Protocols returns the canonical names of every registered protocol, the
// paper's protocols first, then the promoted baselines. Any returned name
// is accepted by Run.
func Protocols() []string { return core.Names() }

// Outcome is the unified result of Run: the CONGEST cost accounting
// shared by every protocol, and the record of what the election produced
// as the protocol's collector read it off the finished network.
type Outcome struct {
	// Metrics is the run's complete cost accounting. It is embedded, so
	// out.Rounds, out.Messages, out.ChargedRounds, out.Dropped, … read it
	// directly; each counter exists once.
	Metrics

	// Outcome is the collector's record, embedded the same way:
	// out.Leaders (surviving node indices; crashed nodes are excluded),
	// out.LeaderID, out.AllKnow (vacuously true but for explicit),
	// explicit's announcement tree out.Parents and out.Depths, and
	// revocable's agreed out.Certificate and out.FinalEstimate (nil and 0
	// otherwise).
	core.Outcome

	// Unique reports whether exactly one leader was elected.
	Unique bool

	// Protocol is the canonical name of the protocol that ran (aliases
	// resolved).
	Protocol string
}

// Certificate is a revocable leader certificate: the leader's random ID
// compounded with the size estimate that was in force when it was chosen.
// Larger Estimate wins; ties break toward smaller ID.
type Certificate = core.Certificate

// Metrics mirrors the simulator's complete cost accounting.
type Metrics struct {
	// Rounds is the number of logical synchronous rounds executed.
	Rounds int
	// ChargedRounds is the CONGEST-model time: per logical round, the
	// maximum over links of the number of budget-sized slots needed to
	// serialize that link's traffic, at least 1 per executed round.
	ChargedRounds int64
	// Messages is the number of point-to-point payloads sent.
	Messages int64
	// Bits is the total payload bits sent.
	Bits int64
	// CongestBits is the per-link per-round budget B used for slotting.
	CongestBits int
	// MaxLinkSlots is the worst per-link slot count observed in any round.
	MaxLinkSlots int
	// MaxChannels is the maximum number of distinct logical channels
	// active on a single link in a single round.
	MaxChannels int
	// Dropped counts packets destroyed by a WithAdversary fault policy
	// (loss or link churn). Dropped packets still count in Messages, Bits
	// and CONGEST charging: the sender transmitted them. Always 0 on
	// fault-free runs.
	Dropped int64
	// Delayed counts packets the adversary deferred past their normal
	// next-round delivery. Always 0 on fault-free runs.
	Delayed int64
	// Crashed counts nodes crash-stopped by the adversary. Always 0 on
	// fault-free runs.
	Crashed int
}

// Add folds o into m, the one sum rule of runs: the counters (Rounds,
// ChargedRounds, Messages, Bits, Dropped, Delayed, Crashed) add, and
// MaxLinkSlots, MaxChannels and CongestBits take the larger value.
func (m *Metrics) Add(o Metrics) {
	m.Rounds += o.Rounds
	m.ChargedRounds += o.ChargedRounds
	m.Messages += o.Messages
	m.Bits += o.Bits
	m.Dropped += o.Dropped
	m.Delayed += o.Delayed
	m.Crashed += o.Crashed
	m.MaxLinkSlots = max(m.MaxLinkSlots, o.MaxLinkSlots)
	m.MaxChannels = max(m.MaxChannels, o.MaxChannels)
	m.CongestBits = max(m.CongestBits, o.CongestBits)
}

func metricsFromSim(m sim.Metrics) Metrics {
	return Metrics{
		Rounds:        m.Rounds,
		ChargedRounds: m.ChargedRounds,
		Messages:      m.Messages,
		Bits:          m.Bits,
		CongestBits:   m.CongestBits,
		MaxLinkSlots:  m.MaxLinkSlots,
		MaxChannels:   m.MaxChannels,
		Dropped:       m.Dropped,
		Delayed:       m.Delayed,
		Crashed:       m.Crashes,
	}
}

// RoundInfo is the per-round snapshot streamed to a WithObserver callback.
type RoundInfo struct {
	// Round is the index of the round just executed (0-based).
	Round int
	// Halted is the number of nodes stopped so far (protocol halts plus
	// adversary crash-stops).
	Halted int
	// Metrics is the cumulative cost accounting after this round.
	Metrics Metrics
}

// Run executes a registered protocol on the network and returns the
// unified Outcome. protocol is any name listed by Protocols() (or the
// legacy alias "flood"). A nil ctx means context.Background(); a
// cancelled context stops the simulation between rounds and returns the
// context's error alongside an Outcome holding the cost accounting so
// far. Runs are deterministic in (network, protocol, seed, options).
func (nw *Network) Run(ctx context.Context, protocol string, opts ...Option) (Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := buildOptions(opts)
	entry, pc, adv, err := nw.resolve(protocol, o)
	if err != nil {
		return Outcome{}, err
	}

	runner, err := entry.Build(pc)
	if err != nil {
		return Outcome{}, err
	}

	var observer func(sim.RoundInfo)
	if o.observer != nil {
		obs := o.observer
		observer = func(ri sim.RoundInfo) {
			obs(RoundInfo{Round: ri.Round, Halted: ri.Halted, Metrics: metricsFromSim(ri.Metrics)})
		}
	}

	// Both backends present the same Runtime surface, so everything below
	// the construction branch — the run loop, halt checks, metric and
	// outcome collection — is backend-agnostic.
	var eng transport.Runtime
	var wire *transport.Cluster // nil on the simulator
	if backend := backends[o.transport]; backend == nil {
		cfg := sim.Config{Graph: nw.g, Seed: o.seed, Adversary: adv, Observer: observer}
		// Take the kept simulator, or build one when another run holds
		// it. Either way this run's is kept afterwards: the Store below
		// runs after the deferred Close, which drops the run from it.
		net := nw.idle.Swap(nil)
		if net == nil {
			net = sim.New(cfg, runner.Factory)
		} else {
			net.Reset(cfg, runner.Factory)
		}
		defer nw.idle.Store(net)
		defer net.Close()
		eng = net
	} else {
		if adv != nil {
			return Outcome{}, fmt.Errorf("anonlead: WithAdversary requires TransportSim")
		}
		wire, err = nw.cluster(ctx, o.transport, transport.Config{
			Graph:     nw.g,
			Seed:      o.seed,
			Transport: backend,
			Observer:  observer,
		}, runner.Factory, entry.Wire)
		if err != nil {
			return Outcome{}, fmt.Errorf("anonlead: %w", err)
		}
		// Every return but the one after Collect, which hands the cluster
		// to keep, closes it.
		defer func() {
			if wire != nil {
				wire.Close()
			}
		}()
		eng = wire
	}

	var runErr error
	if runner.Budget > 0 {
		_, runErr = eng.RunContext(ctx, runner.Budget)
	} else {
		every := runner.CheckEvery
		if every < 1 {
			every = 1
		}
		_, runErr = eng.RunUntilContext(ctx, runner.MaxRounds, func(completed int) bool {
			return completed%every == 0 && runner.Converged(eng)
		})
	}

	// Metrics.Rounds is the engine's own count of executed rounds — the
	// value the run call above returns.
	out := Outcome{Protocol: entry.Name, Metrics: metricsFromSim(eng.Metrics())}
	if runErr != nil {
		return out, fmt.Errorf("anonlead: %s stopped after %d rounds: %w", entry.Name, out.Rounds, runErr)
	}
	if runner.Budget > 0 {
		if !eng.AllHalted() {
			return out, fmt.Errorf("anonlead: %s did not halt within %d rounds: %w",
				entry.Name, runner.Budget, ErrNotHalted)
		}
	} else if !runner.Converged(eng) {
		return out, fmt.Errorf("anonlead: %s did not stabilize within %d rounds: %w",
			entry.Name, out.Rounds, ErrNotStabilized)
	}

	out.Outcome = runner.Collect(eng)
	out.Unique = len(out.Leaders) == 1
	if wire != nil {
		nw.keep(wire, o.transport)
		wire = nil
	}
	return out, nil
}

// cluster returns a cluster ready to run cfg: the kept one reset, when it
// is wired over backend, else a newly connected one. A kept cluster of
// another backend is closed, and so is one whose Reset failed (a link that
// died while it was parked fails the Init pseudo-round); the run then
// connects afresh.
func (nw *Network) cluster(ctx context.Context, backend Transport, cfg transport.Config, factory sim.Factory, codec sim.WireCodec) (*transport.Cluster, error) {
	if kept := nw.idleWire.Swap(nil); kept != nil {
		if kept.backend == backend && kept.cluster.Reset(cfg, factory, codec) == nil {
			return kept.cluster, nil
		}
		kept.cluster.Close()
	}
	return transport.NewCluster(ctx, cfg, factory, codec)
}

// keep parks a cluster whose run halted everywhere and keeps it for the
// network's next run over backend, closing the one it displaces (another
// run's, finished concurrently). A cluster that cannot park is closed.
func (nw *Network) keep(c *transport.Cluster, backend Transport) {
	if !c.Park() {
		c.Close()
		return
	}
	if old := nw.idleWire.Swap(&keptCluster{cluster: c, backend: backend}); old != nil {
		old.cluster.Close()
	}
}

// resolve is the one config-assembly path: check the transport, look the
// protocol up, build the run's adversary, and overlay the network's truth,
// adversary bounds and profiled defaults onto the protocol tunables.
func (nw *Network) resolve(protocol string, o options) (core.Entry, core.ProtoConfig, sim.Adversary, error) {
	if err := o.transport.check(); err != nil {
		return core.Entry{}, core.ProtoConfig{}, nil, err
	}
	entry, ok := core.Lookup(protocol)
	if !ok {
		return entry, core.ProtoConfig{}, nil, fmt.Errorf("anonlead: unknown protocol %q (registered: %s)",
			protocol, strings.Join(Protocols(), ", "))
	}
	pc := o.proto
	if pc.N == 0 {
		pc.N = nw.N()
	}
	var adv sim.Adversary
	if o.adversary != nil {
		var err error
		adv, err = o.adversary.Build(nw.g, adversary.DeriveRunSeed(o.seed))
		if err != nil {
			return entry, pc, nil, fmt.Errorf("anonlead: %w", err)
		}
	}
	if adv != nil {
		pc.MaxDelay = adv.MaxDelay()
		pc.Faulted = true
	}
	err := nw.fillProfiled(&pc, entry.Needs)
	return entry, pc, adv, err
}

// ProtoConfig returns the protocol configuration Run would hand the
// registry under these options, profiled defaults filled in. Its result
// type lives in an internal package, so only this module can call it:
// cmd/ledist resolves once, coordinator-side, and ships the result to its
// node processes, which must not profile independently.
func (nw *Network) ProtoConfig(protocol string, opts ...Option) (core.ProtoConfig, error) {
	_, pc, _, err := nw.resolve(protocol, buildOptions(opts))
	return pc, err
}

// fillProfiled fills the profiled graph quantities the protocol declared
// it needs and the caller did not supply, computing the spectral profile
// lazily on first use. It is the only place a profile becomes protocol
// inputs: the harness and the CLIs get their defaults here too.
func (nw *Network) fillProfiled(pc *core.ProtoConfig, needs core.Needs) error {
	tmix := needs&core.NeedTMix != 0 && pc.TMix == 0
	phi := needs&core.NeedPhi != 0 && pc.Phi == 0
	diam := needs&core.NeedDiam != 0 && pc.Diam == 0
	if !tmix && !phi && !diam {
		return nil
	}
	prof, err := nw.Profile()
	if err != nil {
		return err
	}
	if tmix {
		pc.TMix = prof.MixingTime
	}
	if phi {
		pc.Phi = prof.Conductance
	}
	if diam {
		pc.Diam = prof.Diameter
	}
	return nil
}
