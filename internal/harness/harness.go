// Package harness runs the paper-reproduction experiments: it builds
// topology cells, executes protocol trials through the public anonlead
// API (the registry-backed Network.Run session surface), aggregates cost
// metrics and success rates into cells, and assembles the cells into the
// artifact internal/report renders. Only the series that produce no cells
// (Figures 1-2, X1-X3) have text renderers here.
//
// Every trial is one anonlead.Run call on the anonlead.NewNetwork the cell
// names, with the public types themselves (the harness translates
// nothing), and Run fills every profiled protocol input — so a sweep trial
// and an external user's election are the same code path by construction.
package harness

import (
	"context"
	"errors"
	"fmt"

	"anonlead"
	"anonlead/internal/adversary"
	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/obs"
	"anonlead/internal/rng"
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
	return graph.Seeded(w.Family, w.N, seed)
}

// Trial is the outcome of one protocol execution. Under fault injection,
// Leaders (and the all-know clause of explicit election) are evaluated
// over surviving nodes only: a crash-stopped node cannot claim or learn a
// leadership it will never act on.
type Trial struct {
	Leaders int
	// LeaderNodes lists the elected node indices (the pumping-wheel
	// experiment maps them back onto the wheel's segments).
	LeaderNodes []int
	Success     bool // exactly one (surviving) leader
	// Metrics is the cost accounting Run returned (for an epoch scenario,
	// the totals over its epochs and the last epoch's crash count).
	Metrics anonlead.Metrics
	// RoundProf is the trial's deterministic round-resolved histogram,
	// present only when TrialOpts.RoundProfile asked for one.
	RoundProf *obs.RoundProfile
	// EpochHist is the trial's full repeated-election history, present only
	// when TrialOpts.Epochs made the trial an epoch scenario. The flat
	// fields above then hold the scenario totals (Metrics summed over
	// epochs; Success = every epoch elected).
	EpochHist *anonlead.EpochOutcome
}

// TrialOpts configures a batch of trials.
type TrialOpts struct {
	Trials int
	Seed   uint64
	// Adversary, when non-nil and non-zero, fault-injects every trial of
	// the batch. The adversary's streams are split from the trial seed
	// under a dedicated label, so machine randomness is untouched and a
	// zero-rate spec is byte-identical to no adversary at all.
	Adversary *adversary.Spec
	// ProfileMode selects the regime for the cell's spectral profile (the
	// protocols' tmix/Φ/diameter inputs): exact (legacy, the committed
	// baselines), estimate (streaming, scales past dense-matrix sizes) or
	// auto (exact up to n = 256, estimate above; the zero value). The
	// resolved mode is part of the cell's identity: the network caches one
	// profile per resolved mode and artifact cells record it.
	ProfileMode spectral.Mode
	// PresumedN, when positive, misreports the network size to the
	// protocol (the knowledge ablation after Dieudonné–Pelc: how does
	// election degrade when nodes' knowledge of n is wrong?). The graph
	// keeps its true size; only the size the protocol is told changes.
	// Revocable LE estimates n itself and ignores this knob.
	PresumedN int
	// Proto overlays protocol tunables onto every trial (zero values =
	// protocol defaults; e.g. C, XFactor, Epsilon, or MaxRounds to cap a
	// revocable run an adversary can keep from converging). Run fills the
	// profiled inputs (TMix, Phi, Diam) left at zero; a revocable cell that
	// leaves Iso at zero runs on the profiled i(G).
	Proto core.ProtoConfig
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
	Epochs *anonlead.Scenario
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
	EpochStats *EpochStats
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
// any pool size and shard order in Orchestrator.RunSweep, and any subset of
// a plan's cells swept on its own, evaluates exactly the same trials, which
// is what makes sweep output independent of how it was executed.
func TrialSeed(root uint64, w Workload, t int) uint64 {
	return rng.New(root).SplitString("trial:" + w.Family).Split(uint64(w.N)).DeriveSeed(uint64(t))
}

// prepareCell returns the cell's network — anonlead.NewNetwork(family, n,
// seed), shared process-wide through the cell cache — and its profile
// under mode, which the network computes once per resolved regime and
// every trial's Run then reads its defaults from. Repeated cells (across
// protocols, ablation factors, or whole sweeps) cost one build, one
// structural validation and one profile.
func prepareCell(w Workload, seed uint64, mode spectral.Mode) (*anonlead.Network, *spectral.Profile, error) {
	label := cellLabel(w)
	endPrep := obs.Span("prepare", label)
	anw, err := cachedNetwork(w, seed, mode)
	endPrep()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: build %s/%d: %w", w.Family, w.N, err)
	}
	endProf := obs.Span("profile", label)
	prof, err := anw.Profile(mode)
	endProf()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: profile %s/%d: %w", w.Family, w.N, err)
	}
	return anw, &prof, nil
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
// order, so every pool size produces identical cells down to
// floating-point summation order. sc, when non-nil, is the epoch
// scenario the trials ran; their histories fold into Cell.EpochStats.
func reduceCell(p Protocol, w Workload, prof *spectral.Profile, sc *anonlead.Scenario, trials []Trial) Cell {
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
		cell.CrashedNodes += float64(trial.Metrics.Crashed)
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
		rounds = append(rounds, float64(trial.Metrics.Rounds))
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
	if sc != nil && len(hists) > 0 {
		es := reduceEpochs(*sc, hists)
		cell.EpochStats = &es
	}
	return cell
}

// EpochStats is the per-cell epoch aggregate a bench artifact records
// (schema v6): amortized per-epoch costs, recovery time, and the
// per-epoch-index profiles that show whether later epochs get cheaper.
type EpochStats struct {
	// Epochs, Fault and Carry restate the scenario (cell identity data,
	// also rendered into the cell's Scenario descriptor).
	Epochs int    `json:"epochs"`
	Fault  string `json:"fault"`
	Carry  bool   `json:"carry,omitempty"`
	// Trials is the number of scenario histories aggregated.
	Trials int `json:"trials"`
	// ElectedRate is the fraction of epochs (over all trials) that
	// elected a unique leader.
	ElectedRate float64 `json:"elected_rate"`
	// AmortizedMessages and AmortizedRounds are the mean per-epoch costs
	// over all trials.
	AmortizedMessages float64 `json:"amortized_messages"`
	AmortizedRounds   float64 `json:"amortized_rounds"`
	// MeanRecover is the mean time-to-recover (rounds of successful
	// re-elections) over trials that recovered at least once.
	MeanRecover float64 `json:"mean_recover"`
	// PerEpochMessages, PerEpochRounds and PerEpochElected profile cost
	// and success by epoch index, averaged (summed for Elected) over
	// trials — the carried-knowledge claim is visible as a downward trend.
	PerEpochMessages []float64 `json:"per_epoch_messages"`
	PerEpochRounds   []float64 `json:"per_epoch_rounds"`
	PerEpochElected  []int     `json:"per_epoch_elected"`
}

// reduceEpochs folds per-trial epoch histories into the cell aggregate, in
// trial order (deterministic regardless of how the trials were
// scheduled). Histories shorter than sc.Epochs (aborted runs) contribute
// to the epochs they ran.
func reduceEpochs(sc anonlead.Scenario, hists []anonlead.EpochOutcome) EpochStats {
	es := EpochStats{
		Epochs: sc.Epochs,
		Fault:  sc.Fault(),
		Carry:  sc.Carry,
		Trials: len(hists),
	}
	if sc.Epochs > 0 {
		es.PerEpochMessages = make([]float64, sc.Epochs)
		es.PerEpochRounds = make([]float64, sc.Epochs)
		es.PerEpochElected = make([]int, sc.Epochs)
	}
	epochs, elected := 0, 0
	var messages, rounds int64
	recovered := 0
	var recoverSum float64
	for _, h := range hists {
		for _, r := range h.Epochs {
			epochs++
			messages += r.Messages
			rounds += int64(r.Rounds)
			if r.Elected {
				elected++
			}
			if r.Epoch < len(es.PerEpochMessages) {
				es.PerEpochMessages[r.Epoch] += float64(r.Messages)
				es.PerEpochRounds[r.Epoch] += float64(r.Rounds)
				if r.Elected {
					es.PerEpochElected[r.Epoch]++
				}
			}
		}
		if h.MeanRecover > 0 {
			recovered++
			recoverSum += h.MeanRecover
		}
	}
	if epochs > 0 {
		es.ElectedRate = float64(elected) / float64(epochs)
	}
	if n := len(hists); n > 0 {
		es.AmortizedMessages = float64(messages) / float64(n*sc.Epochs)
		es.AmortizedRounds = float64(rounds) / float64(n*sc.Epochs)
		for e := range es.PerEpochMessages {
			es.PerEpochMessages[e] /= float64(n)
			es.PerEpochRounds[e] /= float64(n)
		}
	}
	if recovered > 0 {
		es.MeanRecover = recoverSum / float64(recovered)
	}
	return es
}

// cellTrials returns the effective trial count of a batch (minimum 1).
func cellTrials(opts TrialOpts) int {
	if opts.Trials <= 0 {
		return 1
	}
	return opts.Trials
}

// runOne executes trial `seed` of protocol p on the prepared network: the
// batch's protocol overlay plus the presumed size and, for revocable, the
// profiled i(G), which are cell identity rather than protocol tunables.
func runOne(p Protocol, anw *anonlead.Network, prof *spectral.Profile, opts TrialOpts, seed uint64) (Trial, error) {
	pc := opts.Proto
	if opts.PresumedN > 0 {
		// Misreport the size for the knowledge ablation; the topology and
		// its profiled parameters stay truthful.
		pc.N = opts.PresumedN
	}
	if p == ProtoRevocable && pc.Iso == 0 {
		// Theorem 3's known-i(G) schedule; Run's default stays blind.
		pc.Iso = prof.Isoperimetric
	}
	return runTrial(anw, string(p), pc, seed, opts)
}

// runTrial is the one way the harness runs anything: a public Run (or
// RunEpochs, for a scenario batch) of proto on anw with the protocol
// config pc, folded into a Trial. Everything pc leaves at zero is
// defaulted by Run itself, profiled inputs included.
func runTrial(anw *anonlead.Network, proto string, pc core.ProtoConfig, seed uint64, opts TrialOpts) (Trial, error) {
	ropts := []anonlead.Option{
		anonlead.WithSeed(seed),
		anonlead.WithProfileMode(opts.ProfileMode),
		anonlead.WithProtoConfig(pc),
	}
	if opts.Adversary != nil {
		ropts = append(ropts, anonlead.WithAdversary(*opts.Adversary))
	}
	var rp *obs.RoundProfile
	if opts.RoundProfile {
		// The public observer feed is cumulative; the profile wants deltas.
		rp = &obs.RoundProfile{}
		o := rp.RoundObserver()
		ropts = append(ropts, anonlead.WithObserver(func(ri anonlead.RoundInfo) {
			o(ri.Metrics.Messages, int64(ri.Halted))
		}))
	}
	if opts.Epochs != nil {
		return epochTrial(anw, proto, ropts, *opts.Epochs, rp)
	}
	out, err := anw.Run(context.Background(), proto, ropts...)
	faulted := opts.Adversary != nil && !opts.Adversary.IsZero()
	if errors.Is(err, anonlead.ErrNotStabilized) && faulted {
		// Under fault injection a non-converging election is a measured
		// outcome — it degrades the success rate like any other fault
		// damage — not a harness error that should abort the sweep. The
		// partial Outcome still carries the run's cost accounting, and
		// every executed round was observed.
		return Trial{Metrics: out.Metrics, RoundProf: rp}, nil
	}
	if err != nil {
		return Trial{}, fmt.Errorf("harness: %w", err)
	}
	return Trial{
		Leaders:     len(out.Leaders),
		LeaderNodes: out.Leaders,
		Success:     out.Unique && out.AllKnow,
		Metrics:     out.Metrics,
		RoundProf:   rp,
	}, nil
}

// epochTrial executes one repeated-election scenario through the public
// RunEpochs path and folds the history into a Trial: the flat fields carry
// the scenario totals (so classic cell aggregation still means
// something), and the full history rides along for reduceEpochs.
func epochTrial(anw *anonlead.Network, proto string, ropts []anonlead.Option, sc anonlead.Scenario, rp *obs.RoundProfile) (Trial, error) {
	hist, err := anw.RunEpochs(context.Background(), proto, sc, ropts...)
	if err != nil {
		return Trial{}, fmt.Errorf("harness: %w", err)
	}
	trial := Trial{
		Success: hist.Elected == len(hist.Epochs),
		Metrics: anonlead.Metrics{
			Rounds:        hist.TotalRounds,
			ChargedRounds: hist.TotalCharged,
			Messages:      hist.TotalMessages,
			Bits:          hist.TotalBits,
		},
		RoundProf: rp,
		EpochHist: &hist,
	}
	if n := len(hist.Epochs); n > 0 {
		last := hist.Epochs[n-1]
		trial.Metrics.Crashed = last.Crashed
		if last.Elected {
			trial.Leaders = 1
		}
	}
	return trial, nil
}
