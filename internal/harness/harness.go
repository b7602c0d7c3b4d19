// Package harness runs the paper-reproduction experiments: it builds
// topology cells, executes protocol trials through the public anonlead
// API (the registry-backed Network.Run session surface), aggregates cost
// metrics and success rates, and renders the Table 1 rows and figure
// series that EXPERIMENTS.md records.
//
// Every trial goes through anonlead.Run, so the sweeps exercise exactly
// the code path external users call; the bench artifacts pin that the
// migration kept trial semantics byte-identical.
package harness

import (
	"context"
	"errors"
	"fmt"

	"anonlead"
	"anonlead/internal/adversary"
	"anonlead/internal/baseline"
	"anonlead/internal/core"
	"anonlead/internal/epoch"
	"anonlead/internal/graph"
	"anonlead/internal/obs"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
	"anonlead/internal/stats"
)

// Protocol names a protocol under test.
type Protocol string

// The protocols the harness can run.
const (
	ProtoIRE        Protocol = "ire"        // this work, Section 4
	ProtoExplicit   Protocol = "explicit"   // this work + Section 3 announcement
	ProtoFlood      Protocol = "flood"      // Kutten-class baseline
	ProtoAllFlood   Protocol = "allflood"   // naive flooding baseline
	ProtoWalkNotify Protocol = "walknotify" // Gilbert-class baseline
	ProtoRevocable  Protocol = "revocable"  // this work, Section 5.2
)

// Protocols lists all runnable protocols.
func Protocols() []Protocol {
	return []Protocol{ProtoIRE, ProtoExplicit, ProtoFlood, ProtoAllFlood, ProtoWalkNotify, ProtoRevocable}
}

// Workload identifies a topology cell.
type Workload struct {
	Family string
	N      int
}

// BuildGraph constructs the workload's graph deterministically from seed
// (random families draw from a seed-keyed stream).
func (w Workload) BuildGraph(seed uint64) (*graph.Graph, error) {
	r := rng.New(seed).SplitString("graph:" + w.Family)
	return graph.ByName(w.Family, w.N, r)
}

// Trial is the outcome of one protocol execution. Under fault injection,
// Leaders (and the all-know clause of explicit election) are evaluated
// over surviving nodes only: a crash-stopped node cannot claim or learn a
// leadership it will never act on.
type Trial struct {
	Leaders int
	Success bool // exactly one (surviving) leader
	Rounds  int
	Crashed int // nodes crash-stopped by the adversary
	Metrics sim.Metrics
	// RoundProf is the trial's deterministic round-resolved histogram,
	// present only when TrialOpts.RoundProfile asked for one.
	RoundProf *obs.RoundProfile
	// EpochHist is the trial's full repeated-election history, present only
	// when TrialOpts.Epochs made the trial an epoch scenario. The flat
	// fields above then hold the scenario totals (Rounds/Metrics summed over
	// epochs; Success = every epoch elected).
	EpochHist *anonlead.EpochOutcome
}

// SimOpts carries the execution knobs every trial runner threads into the
// public Run path: scheduler selection and the optional fault adversary.
type SimOpts struct {
	// Scheduler selects the execution engine (zero = Sequential).
	Scheduler sim.Scheduler
	// Adversary, when non-nil and non-zero, fault-injects the trial. The
	// runtime adversary is built inside anonlead.Run with the canonical
	// seed derivation (adversary.DeriveRunSeed), so harness and public
	// fault-injected runs are byte-identical.
	Adversary *adversary.Spec
	// Observer, when non-nil, streams per-round metrics out of the trial
	// (the round-profile feed; any per-trial telemetry rides the same hook).
	Observer func(anonlead.RoundInfo)
}

// faulted reports whether the options carry an active fault policy.
func (o SimOpts) faulted() bool {
	return o.Adversary != nil && !o.Adversary.IsZero()
}

// options maps the execution knobs onto public Run options.
func (o SimOpts) options(seed uint64) []anonlead.Option {
	opts := []anonlead.Option{anonlead.WithSeed(seed)}
	if o.Scheduler != sim.Sequential {
		opts = append(opts, anonlead.WithScheduler(publicScheduler(o.Scheduler)))
	}
	if o.Adversary != nil {
		opts = append(opts, anonlead.WithAdversary(publicAdversary(*o.Adversary)))
	}
	if o.Observer != nil {
		opts = append(opts, anonlead.WithObserver(o.Observer))
	}
	return opts
}

// publicScheduler mirrors a simulator scheduler into the public enum.
func publicScheduler(s sim.Scheduler) anonlead.Scheduler {
	switch s {
	case sim.WorkerPool:
		return anonlead.WorkerPool
	case sim.Actors:
		return anonlead.Actors
	default:
		return anonlead.Sequential
	}
}

// publicAdversary mirrors an internal adversary spec into the public one,
// field for field (the public type exists so library users can declare
// the same fault policies the sweeps run).
func publicAdversary(s adversary.Spec) anonlead.AdversarySpec {
	return anonlead.AdversarySpec{
		Loss:          s.Loss,
		CrashFraction: s.CrashFraction,
		CrashBy:       s.CrashBy,
		CrashSchedule: s.CrashSchedule,
		Churn:         s.Churn,
		ChurnPreserve: s.ChurnPreserve,
		DelayProb:     s.DelayProb,
		MaxDelay:      s.MaxDelay,

		AdaptiveCrash:   s.AdaptiveCrash,
		AdaptiveWindow:  s.AdaptiveWindow,
		AdaptiveStrikes: s.AdaptiveStrikes,
	}
}

// simMetrics maps the public metrics mirror back onto the simulator type
// the harness aggregates (lossless: the mirrors are field-for-field).
func simMetrics(m anonlead.Metrics) sim.Metrics {
	return sim.Metrics{
		Rounds:        m.Rounds,
		ChargedRounds: m.ChargedRounds,
		Messages:      m.Messages,
		Bits:          m.Bits,
		CongestBits:   m.CongestBits,
		MaxLinkSlots:  m.MaxLinkSlots,
		MaxChannels:   m.MaxChannels,
		Dropped:       m.Dropped,
		Delayed:       m.Delayed,
		Crashes:       m.Crashed,
	}
}

// TrialOpts configures a batch of trials.
type TrialOpts struct {
	Trials int
	Seed   uint64
	// Scheduler selects the simulator engine for every trial (zero =
	// Sequential). All engines are
	// bit-identical; the knob exists so determinism tests can sweep them.
	Scheduler sim.Scheduler
	// Adversary, when non-nil and non-zero, fault-injects every trial of
	// the batch. The adversary's streams are split from the trial seed
	// under a dedicated label, so machine randomness is untouched and a
	// zero-rate spec is byte-identical to no adversary at all.
	Adversary *adversary.Spec
	// ProfileMode selects the regime for the cell's spectral profile (the
	// protocols' tmix/Φ/diameter inputs): exact (legacy, the committed
	// baselines), estimate (streaming, scales past dense-matrix sizes) or
	// auto (exact up to n = 256, estimate above; the zero value). The
	// resolved mode is part of the cell's identity: the profile cache keys
	// on it and artifact cells record it.
	ProfileMode spectral.Mode
	// PresumedN, when positive, misreports the network size to the
	// protocol (the knowledge ablation after Dieudonné–Pelc: how does
	// election degrade when nodes' knowledge of n is wrong?). The graph
	// keeps its true size; only the size the protocol is told changes.
	// Revocable LE estimates n itself and ignores this knob.
	PresumedN int
	// IRE overrides the IRE protocol constants (zero values = defaults).
	IRE core.IREConfig
	// Revocable overrides the revocable protocol parameters.
	Revocable core.RevocableConfig
	// RevocableMaxRounds caps a revocable run (0 = automatic).
	RevocableMaxRounds int
	// RevocableUseProfileIso feeds the profiled exact isoperimetric
	// number into the revocable protocol (the Theorem 3 known-i(G)
	// schedule) instead of the blind Corollary 1 schedule.
	RevocableUseProfileIso bool
	// RoundProfile, when true, attaches a deterministic per-round
	// message/halt histogram to every trial (merged per cell and persisted
	// in the schema-v5 artifact's round_profile section). Off by default:
	// an unprofiled sweep serializes byte-identically to one that never
	// heard of round profiles.
	RoundProfile bool
	// Epochs, when non-nil, turns every trial into a repeated-election
	// epoch scenario (anonlead.RunEpochs): the trial's flat metrics become
	// scenario totals and the cell additionally aggregates per-epoch stats
	// (schema-v6 artifact epochs section). Nil keeps the classic
	// single-election trial byte-identical to earlier schemas.
	Epochs *epoch.Opts
}

// Cell is the aggregated result of a trial batch on one workload.
type Cell struct {
	Protocol Protocol
	Workload Workload
	Profile  *spectral.Profile

	Trials    int
	Successes int
	// Means over trials.
	Messages float64
	Bits     float64
	Rounds   float64
	Charged  float64
	// Per-trial distributions of the same metrics (stddev, min/max, tail
	// quantiles) — what the schema-v2 artifact persists so regression
	// tooling can separate real effects from trial variance.
	MessagesDist stats.Dist
	BitsDist     stats.Dist
	RoundsDist   stats.Dist
	ChargedDist  stats.Dist
	// MultiLeaders counts trials with more than one leader (vs zero).
	MultiLeaders int
	ZeroLeaders  int
	// Fault-injection aggregates (all zero on fault-free cells): mean
	// adversary-dropped packets and mean crash-stopped nodes per trial.
	Dropped      float64
	CrashedNodes float64
	// RoundProf is the elementwise sum of the trials' round histograms,
	// merged in trial-index order (nil unless TrialOpts.RoundProfile).
	RoundProf *obs.RoundProfile
	// EpochStats aggregates the trials' repeated-election histories in
	// trial-index order (nil unless TrialOpts.Epochs made this an epoch
	// scenario cell).
	EpochStats *epoch.CellStats
}

// SuccessRate returns the fraction of trials electing exactly one leader.
func (c Cell) SuccessRate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Trials)
}

// TrialSeed derives the seed of trial t of a workload cell from the root
// seed by rng stream splitting. It is a pure function of (root, cell, t):
// any execution order — the sequential loop in RunCell or the sharded
// worker pool in Orchestrator.RunSweep — evaluates exactly the same trials,
// which is what makes parallel sweep output bit-identical to sequential.
func TrialSeed(root uint64, w Workload, t int) uint64 {
	return rng.New(root).SplitString("trial:" + w.Family).Split(uint64(w.N)).DeriveSeed(uint64(t))
}

// AdversarySeed derives a trial's fault-injection stream from its trial
// seed — the canonical derivation shared with the public Run path, which
// builds its adversaries with the same function (so harness sweeps and
// public fault-injected runs are byte-identical).
func AdversarySeed(trialSeed uint64) uint64 {
	return adversary.DeriveRunSeed(trialSeed)
}

// prepareCell deterministically builds and profiles a workload graph and
// wraps it as a public network (the session object every trial of the
// cell runs through). The graph, its network wrap, and the profile all
// come from the process-wide cell cache, so repeated cells — across
// protocols, ablation factors, or whole sweeps — cost one build, one
// structural validation, and one profile. The network's own lazy profile
// is never touched: trials supply every profiled input explicitly.
func prepareCell(w Workload, seed uint64, mode spectral.Mode) (*anonlead.Network, *spectral.Profile, error) {
	label := cellLabel(w)
	endPrep := obs.Span("prepare", label)
	_, anw, err := cachedGraph(w, seed)
	endPrep()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: build %s/%d: %w", w.Family, w.N, err)
	}
	endProf := obs.Span("profile", label)
	prof, err := cachedSpectralProfile(w, seed, mode)
	endProf()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: profile %s/%d: %w", w.Family, w.N, err)
	}
	return anw, prof, nil
}

// cellLabel is the span detail naming a workload cell. It formats nothing
// while telemetry is disabled, keeping disabled call sites allocation-free.
func cellLabel(w Workload) string {
	if !obs.Enabled() {
		return ""
	}
	return fmt.Sprintf("%s/%d", w.Family, w.N)
}

// reduceCell aggregates a batch of trials, always in slice (= trial index)
// order, so sequential and sharded executions produce identical cells down
// to floating-point summation order. eo, when non-nil, is the epoch
// scenario the trials ran; their histories fold into Cell.EpochStats.
func reduceCell(p Protocol, w Workload, prof *spectral.Profile, eo *epoch.Opts, trials []Trial) Cell {
	cell := Cell{Protocol: p, Workload: w, Profile: prof}
	var hists []anonlead.EpochOutcome
	msgs := make([]float64, 0, len(trials))
	bits := make([]float64, 0, len(trials))
	rounds := make([]float64, 0, len(trials))
	charged := make([]float64, 0, len(trials))
	for _, trial := range trials {
		cell.Trials++
		if trial.Success {
			cell.Successes++
		}
		if trial.Leaders > 1 {
			cell.MultiLeaders++
		}
		if trial.Leaders == 0 {
			cell.ZeroLeaders++
		}
		cell.Dropped += float64(trial.Metrics.Dropped)
		cell.CrashedNodes += float64(trial.Crashed)
		if trial.RoundProf != nil {
			if cell.RoundProf == nil {
				cell.RoundProf = &obs.RoundProfile{}
			}
			cell.RoundProf.Merge(trial.RoundProf)
		}
		if trial.EpochHist != nil {
			hists = append(hists, *trial.EpochHist)
		}
		msgs = append(msgs, float64(trial.Metrics.Messages))
		bits = append(bits, float64(trial.Metrics.Bits))
		rounds = append(rounds, float64(trial.Rounds))
		charged = append(charged, float64(trial.Metrics.ChargedRounds))
	}
	if cell.Trials > 0 {
		cell.Dropped /= float64(cell.Trials)
		cell.CrashedNodes /= float64(cell.Trials)
	}
	cell.MessagesDist = stats.DistOf(msgs)
	cell.BitsDist = stats.DistOf(bits)
	cell.RoundsDist = stats.DistOf(rounds)
	cell.ChargedDist = stats.DistOf(charged)
	cell.Messages = cell.MessagesDist.Mean
	cell.Bits = cell.BitsDist.Mean
	cell.Rounds = cell.RoundsDist.Mean
	cell.Charged = cell.ChargedDist.Mean
	if eo != nil && len(hists) > 0 {
		cs := epoch.Reduce(*eo, hists)
		cell.EpochStats = &cs
	}
	return cell
}

// RunCell profiles the workload graph and executes a batch of trials of
// the protocol on it, sequentially on the calling goroutine. It is the
// reference semantics for Orchestrator.RunSweep, which produces
// bit-identical cells from a worker pool.
func RunCell(p Protocol, w Workload, opts TrialOpts) (Cell, error) {
	anw, prof, err := prepareCell(w, opts.Seed, opts.ProfileMode)
	if err != nil {
		return Cell{}, err
	}
	trials := make([]Trial, cellTrials(opts))
	endTrials := obs.Span("trials", cellLabel(w))
	for t := range trials {
		trial, err := runOne(p, anw, prof, opts, TrialSeed(opts.Seed, w, t))
		if err != nil {
			endTrials()
			return Cell{Protocol: p, Workload: w, Profile: prof}, err
		}
		trials[t] = trial
	}
	endTrials()
	endReduce := obs.Span("reduce", cellLabel(w))
	defer endReduce()
	return reduceCell(p, w, prof, opts.Epochs, trials), nil
}

// cellTrials returns the effective trial count of a batch (minimum 1).
func cellTrials(opts TrialOpts) int {
	if opts.Trials <= 0 {
		return 1
	}
	return opts.Trials
}

// runOne executes a single trial of protocol p on the prepared network,
// resolving the cell's trial options into the shared protocol config the
// public Run path consumes. Defaults are filled from the cell's profile
// here (not inside Run) so the per-cell profile is computed exactly once.
func runOne(p Protocol, anw *anonlead.Network, prof *spectral.Profile, opts TrialOpts, seed uint64) (Trial, error) {
	// The size the protocol is told; PresumedN misreports it for the
	// knowledge ablation (topology parameters stay truthful).
	presumedN := anw.N()
	if opts.PresumedN > 0 {
		presumedN = opts.PresumedN
	}
	simo := SimOpts{Scheduler: opts.Scheduler, Adversary: opts.Adversary}
	var rp *obs.RoundProfile
	if opts.RoundProfile {
		rp = &obs.RoundProfile{}
		simo.Observer = roundProfileObserver(rp)
	}
	var pc core.ProtoConfig
	switch p {
	case ProtoIRE, ProtoExplicit:
		cfg := opts.IRE
		cfg.N = presumedN
		if cfg.TMix == 0 {
			cfg.TMix = prof.MixingTime
		}
		if cfg.Phi == 0 {
			cfg.Phi = prof.Conductance
		}
		pc = ireProto(cfg)
	case ProtoFlood, ProtoAllFlood:
		pc = core.ProtoConfig{N: presumedN, Diam: prof.Diameter, AllNodes: p == ProtoAllFlood}
	case ProtoWalkNotify:
		pc = core.ProtoConfig{N: presumedN, TMix: prof.MixingTime}
	case ProtoRevocable:
		cfg := opts.Revocable
		if opts.RevocableUseProfileIso && cfg.Isoperimetric == 0 {
			cfg.Isoperimetric = prof.Isoperim
		}
		pc = revocableProto(cfg, opts.RevocableMaxRounds)
	default:
		return Trial{}, fmt.Errorf("harness: unknown protocol %q", p)
	}
	if opts.Epochs != nil {
		trial, err := runEpochTrial(anw, string(p), pc, seed, simo, *opts.Epochs)
		if err == nil {
			trial.RoundProf = rp
		}
		return trial, err
	}
	trial, err := runTrial(anw, string(p), pc, seed, simo)
	if err == nil {
		// Both real completions and measured fault non-convergence carry
		// the profile: every executed round was observed either way.
		trial.RoundProf = rp
	}
	return trial, err
}

// runEpochTrial executes one repeated-election scenario through the public
// RunEpochs path and folds the history into a harness Trial: the flat
// fields carry the scenario totals (so classic cell aggregation still
// means something), and the full history rides along for epoch.Reduce.
func runEpochTrial(anw *anonlead.Network, proto string, pc core.ProtoConfig, seed uint64, o SimOpts, eo epoch.Opts) (Trial, error) {
	base := append(o.options(seed), anonlead.WithProtoConfig(pc))
	hist, err := epoch.Run(anw, proto, base, eo)
	if err != nil {
		return Trial{}, fmt.Errorf("harness: %w", err)
	}
	trial := Trial{
		Success: hist.Elected == len(hist.Epochs),
		Rounds:  hist.TotalRounds,
		Metrics: sim.Metrics{
			Rounds:        hist.TotalRounds,
			ChargedRounds: hist.TotalCharged,
			Messages:      hist.TotalMessages,
			Bits:          hist.TotalBits,
		},
		EpochHist: &hist,
	}
	if n := len(hist.Epochs); n > 0 {
		last := hist.Epochs[n-1]
		trial.Crashed = last.Crashed
		if last.Elected {
			trial.Leaders = 1
		}
	}
	return trial, nil
}

// roundProfileObserver adapts the public per-round observer feed — which
// is cumulative — into per-round deltas on a round profile.
func roundProfileObserver(rp *obs.RoundProfile) func(anonlead.RoundInfo) {
	o := rp.RoundObserver()
	return func(ri anonlead.RoundInfo) { o(ri.Metrics.Messages, int64(ri.Halted)) }
}

// ireProto maps an IRE config onto the shared protocol config.
func ireProto(cfg core.IREConfig) core.ProtoConfig {
	return core.ProtoConfig{
		N: cfg.N, TMix: cfg.TMix, Phi: cfg.Phi, C: cfg.C,
		X: cfg.X, XFactor: cfg.XFactor, MaxID: cfg.MaxID,
		BroadcastOnly: cfg.BroadcastOnly,
	}
}

// revocableProto maps a revocable config onto the shared protocol config.
func revocableProto(cfg core.RevocableConfig, maxRounds int) core.ProtoConfig {
	return core.ProtoConfig{
		Epsilon: cfg.Epsilon, Xi: cfg.Xi, Iso: cfg.Isoperimetric,
		FMult: cfg.FMult, RMult: cfg.RMult, MaxRounds: maxRounds,
	}
}

// runTrial executes one election through the public Run path and folds
// the unified outcome into a harness Trial.
func runTrial(anw *anonlead.Network, proto string, pc core.ProtoConfig, seed uint64, o SimOpts) (Trial, error) {
	ropts := append(o.options(seed), anonlead.WithProtoConfig(pc))
	out, err := anw.Run(context.Background(), proto, ropts...)
	if err != nil {
		if errors.Is(err, anonlead.ErrNotStabilized) && o.faulted() {
			// Under fault injection a non-converging election is a
			// measured outcome — it degrades the success rate like any
			// other fault damage — not a harness error that should abort
			// the sweep. The partial Outcome still carries the run's cost
			// accounting.
			return Trial{Leaders: 0, Success: false, Rounds: out.Rounds,
				Crashed: out.Metrics.Crashed, Metrics: simMetrics(out.Metrics)}, nil
		}
		return Trial{}, fmt.Errorf("harness: %w", err)
	}
	return Trial{
		Leaders: len(out.Leaders),
		Success: out.Unique && out.AllKnow,
		Rounds:  out.Rounds,
		Crashed: out.Metrics.Crashed,
		Metrics: simMetrics(out.Metrics),
	}, nil
}

// wrapGraph adapts a pre-built graph for the standalone trial runners.
func wrapGraph(g *graph.Graph) (*anonlead.Network, error) {
	anw, err := anonlead.NewNetworkFromGraph(g)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return anw, nil
}

// RunIRETrial executes one Irrevocable LE election.
func RunIRETrial(g *graph.Graph, cfg core.IREConfig, seed uint64, o SimOpts) (Trial, error) {
	anw, err := wrapGraph(g)
	if err != nil {
		return Trial{}, err
	}
	return runTrial(anw, "ire", ireProto(cfg), seed, o)
}

// IRELeaderNodes runs one IRE election and returns the elected node
// indices (used by the pumping-wheel experiment).
func IRELeaderNodes(g *graph.Graph, cfg core.IREConfig, seed uint64, o SimOpts) ([]int, sim.Metrics, error) {
	anw, err := wrapGraph(g)
	if err != nil {
		return nil, sim.Metrics{}, err
	}
	ropts := append(o.options(seed), anonlead.WithProtoConfig(ireProto(cfg)))
	out, err := anw.Run(context.Background(), "ire", ropts...)
	if err != nil {
		return nil, sim.Metrics{}, fmt.Errorf("harness: %w", err)
	}
	return out.Leaders, simMetrics(out.Metrics), nil
}

// RunExplicitTrial executes one explicit election (implicit protocol plus
// announcement flood). Success additionally requires every surviving node
// to have learned the leader.
func RunExplicitTrial(g *graph.Graph, cfg core.ExplicitConfig, seed uint64, o SimOpts) (Trial, error) {
	anw, err := wrapGraph(g)
	if err != nil {
		return Trial{}, err
	}
	pc := ireProto(cfg.IRE)
	pc.AnnounceRounds = cfg.AnnounceRounds
	return runTrial(anw, "explicit", pc, seed, o)
}

// RunFloodTrial executes one FloodMax election.
func RunFloodTrial(g *graph.Graph, cfg baseline.FloodConfig, seed uint64, o SimOpts) (Trial, error) {
	anw, err := wrapGraph(g)
	if err != nil {
		return Trial{}, err
	}
	pc := core.ProtoConfig{N: cfg.N, Diam: cfg.Diam, C: cfg.C, AllNodes: cfg.AllNodes}
	proto := "floodmax"
	if cfg.AllNodes {
		proto = "allflood"
	}
	return runTrial(anw, proto, pc, seed, o)
}

// RunWalkNotifyTrial executes one Gilbert-class baseline election.
func RunWalkNotifyTrial(g *graph.Graph, cfg baseline.WalkNotifyConfig, seed uint64, o SimOpts) (Trial, error) {
	anw, err := wrapGraph(g)
	if err != nil {
		return Trial{}, err
	}
	pc := core.ProtoConfig{N: cfg.N, TMix: cfg.TMix, C: cfg.C, Beta: cfg.Beta}
	return runTrial(anw, "walknotify", pc, seed, o)
}

// RunRevocableTrial executes one revocable election until the theory's
// stability point (all nodes chose, certificates agree, k^{1+ε} > 4n) or
// maxRounds.
func RunRevocableTrial(g *graph.Graph, cfg core.RevocableConfig, seed uint64, maxRounds int, o SimOpts) (Trial, error) {
	anw, err := wrapGraph(g)
	if err != nil {
		return Trial{}, err
	}
	return runTrial(anw, "revocable", revocableProto(cfg, maxRounds), seed, o)
}
