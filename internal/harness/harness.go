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
	Family string `json:"family"`
	N      int    `json:"n"`
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
	// Outcome is what Run returned: its cost accounting and its leaders
	// (the pumping-wheel experiment maps them back onto the wheel's
	// segments). For an epoch scenario it holds the totals over the
	// epochs, the last epoch's crash count and, when that epoch elected,
	// its leader.
	anonlead.Outcome
	Success bool // exactly one (surviving) leader; every epoch elected
	// RoundProf is the trial's deterministic round-resolved histogram,
	// present only when TrialOpts.RoundProfile asked for one.
	RoundProf *obs.RoundProfile
	// EpochHist is the trial's full repeated-election history, present only
	// when TrialOpts.Epochs made the trial an epoch scenario.
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
	// in the artifact's round_profile section). Off by default:
	// an unprofiled sweep serializes byte-identically to one that never
	// heard of round profiles.
	RoundProfile bool
	// Epochs, when non-nil, turns every trial into a repeated-election
	// epoch scenario (anonlead.RunEpochs): the trial's flat metrics become
	// scenario totals and the cell additionally aggregates per-epoch stats
	// (the artifact's epochs section). Nil keeps the classic
	// single-election trial.
	Epochs *anonlead.Scenario
}

// Cell is the aggregated result of a trial batch on one workload, and the
// artifact's record of it: its JSON encoding is one cell of
// BENCH_harness.json, which benchdiff aligns and the report renders. It
// holds the cell's identity, the graph profile's persisted figures, the
// measured aggregates and the paper's predicted complexities.
type Cell struct {
	Protocol Protocol `json:"protocol"`
	Workload
	// The graph profile: edge count, diameter, mixing time and conductance.
	M           int     `json:"m"`
	Diameter    int     `json:"diameter"`
	MixingTime  int     `json:"tmix"`
	Conductance float64 `json:"phi"`
	PresumedN   int     `json:"presumed_n,omitempty"`
	// Adversary is the canonical fault-injection descriptor of the cell
	// (adversary.Spec.Descriptor; "" = fault-free). Part of its Key.
	Adversary string `json:"adversary,omitempty"`
	// Scenario is the epoch scenario descriptor of a repeated-election
	// cell (anonlead.Scenario.Descriptor; "" = classic single-election
	// cell). Part of its Key.
	Scenario string `json:"scenario,omitempty"`

	Trials    int `json:"trials"`
	Successes int `json:"successes"`
	// MultiLeaders counts trials with more than one leader (vs zero).
	MultiLeaders int `json:"multi_leaders"`
	ZeroLeaders  int `json:"zero_leaders"`
	// Means over trials.
	Messages float64 `json:"messages"`
	Bits     float64 `json:"bits"`
	Rounds   float64 `json:"rounds"`
	Charged  float64 `json:"charged"`
	// Fault-injection aggregates (absent on fault-free cells): mean
	// adversary-dropped packets and mean crash-stopped nodes per trial.
	Dropped      float64 `json:"dropped,omitempty"`
	CrashedNodes float64 `json:"crashed_nodes,omitempty"`

	// Per-trial distributions of the same metrics (stddev, min/max, tail
	// quantiles); ReadArtifact refuses a cell without them.
	MessagesDist *stats.Dist `json:"messages_dist,omitempty"`
	BitsDist     *stats.Dist `json:"bits_dist,omitempty"`
	RoundsDist   *stats.Dist `json:"rounds_dist,omitempty"`
	ChargedDist  *stats.Dist `json:"charged_dist,omitempty"`

	// RoundProf is the elementwise sum of the trials' round histograms,
	// merged in trial-index order (nil unless TrialOpts.RoundProfile).
	RoundProf *obs.RoundProfile `json:"round_profile,omitempty"`
	// EpochStats aggregates the trials' repeated-election histories in
	// trial-index order (nil unless TrialOpts.Epochs made this an epoch
	// scenario cell).
	EpochStats *EpochStats `json:"epochs,omitempty"`

	// The leading terms of the paper's message and time bounds, evaluated
	// on the graph profile.
	PredictedMsgs float64 `json:"predicted_msgs"`
	PredictedTime float64 `json:"predicted_time"`
}

// CellKey is a sweep cell's identity: the coordinates that make two cells
// comparable across artifacts. Everything else in a Cell (graph profile,
// trial counts, measurements) is what a comparison compares.
type CellKey struct {
	Protocol  Protocol `json:"protocol"`
	Family    string   `json:"family"`
	N         int      `json:"n"`
	PresumedN int      `json:"presumed_n,omitempty"`
	Adversary string   `json:"adversary,omitempty"`
	// Scenario is keyed because a scenario cell's metrics are multi-epoch
	// totals: a scenario switch reads as a cell added and one removed, not
	// as a false cost regression.
	Scenario string `json:"scenario,omitempty"`
}

// Key returns the cell's identity.
func (c Cell) Key() CellKey {
	return CellKey{Protocol: c.Protocol, Family: c.Family, N: c.N,
		PresumedN: c.PresumedN, Adversary: c.Adversary, Scenario: c.Scenario}
}

// String renders the key the way the rendered tables name cells.
func (k CellKey) String() string {
	s := fmt.Sprintf("%s %s/%d", k.Protocol, k.Family, k.N)
	if k.PresumedN > 0 && k.PresumedN != k.N {
		s += fmt.Sprintf(" (presumed n=%d)", k.PresumedN)
	}
	if k.Adversary != "" {
		s += fmt.Sprintf(" [%s]", k.Adversary)
	}
	if k.Scenario != "" {
		s += fmt.Sprintf(" <%s>", k.Scenario)
	}
	return s
}

// SuccessRate returns the fraction of trials electing exactly one leader.
func (c Cell) SuccessRate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Trials)
}

// MsgsVsPred returns mean messages over the predicted message bound (0
// when either is not positive: the ratio is undefined).
func (c Cell) MsgsVsPred() float64 { return vsPred(c.Messages, c.PredictedMsgs) }

// TimeVsPred returns mean rounds over the predicted time bound (0 when
// either is not positive).
func (c Cell) TimeVsPred() float64 { return vsPred(c.Rounds, c.PredictedTime) }

func vsPred(measured, predicted float64) float64 {
	if measured <= 0 || predicted <= 0 {
		return 0
	}
	return measured / predicted
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
// seed), shared process-wide through the cell cache — and its profile,
// which every trial's Run reads. Repeated cells (across protocols,
// ablation factors, or whole sweeps) cost one build, one structural
// validation and one profile.
func prepareCell(w Workload, seed uint64) (*anonlead.Network, *spectral.Profile, error) {
	label := cellLabel(w)
	endPrep := obs.Span("prepare", label)
	anw, err := cachedNetwork(w, seed)
	endPrep()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: build %s/%d: %w", w.Family, w.N, err)
	}
	endProf := obs.Span("profile", label)
	prof, err := anw.Profile()
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

// reduceCell aggregates the trials of spec on a graph with profile prof,
// always in slice (= trial index) order, so every pool size produces
// identical cells down to floating-point summation order. When the spec
// names an epoch scenario, the trials' histories fold into
// Cell.EpochStats.
func reduceCell(spec CellSpec, prof *spectral.Profile, trials []Trial) Cell {
	p, opts := spec.Protocol, spec.Opts
	cell := Cell{
		Protocol: p, Workload: spec.Workload,
		M: prof.M, Diameter: prof.Diameter, MixingTime: prof.MixingTime, Conductance: prof.Conductance,
		PresumedN:     opts.PresumedN,
		PredictedMsgs: predictMsgs(p, prof),
		PredictedTime: predictTime(p, prof),
	}
	if opts.Adversary != nil {
		cell.Adversary = opts.Adversary.Descriptor() // "" for a zero-rate spec
	}
	if opts.Epochs != nil {
		cell.Scenario = opts.Epochs.Descriptor()
	}
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
		if len(trial.Leaders) > 1 {
			cell.MultiLeaders++
		}
		if len(trial.Leaders) == 0 {
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
	cell.MessagesDist, cell.Messages = distMean(msgs)
	cell.BitsDist, cell.Bits = distMean(bits)
	cell.RoundsDist, cell.Rounds = distMean(rounds)
	cell.ChargedDist, cell.Charged = distMean(charged)
	if opts.Epochs != nil && len(hists) > 0 {
		es := reduceEpochs(*opts.Epochs, hists)
		cell.EpochStats = &es
	}
	return cell
}

// distMean returns the distribution of a per-trial sample and its mean.
func distMean(xs []float64) (*stats.Dist, float64) {
	d := stats.DistOf(xs)
	return &d, d.Mean
}

// EpochStats is the per-cell epoch aggregate a bench artifact records:
// amortized per-epoch costs, recovery time, and the per-epoch-index
// profiles that show whether later epochs get cheaper. The scenario itself
// is the cell's Scenario descriptor, and its histories are the cell's
// trials.
type EpochStats struct {
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
	var es EpochStats
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
		return Trial{Outcome: out, RoundProf: rp}, nil
	}
	if err != nil {
		return Trial{}, fmt.Errorf("harness: %w", err)
	}
	return Trial{Outcome: out, Success: out.Unique && out.AllKnow, RoundProf: rp}, nil
}

// epochTrial executes one repeated-election scenario through the public
// RunEpochs path and folds the history into a Trial: its outcome carries
// the scenario totals (so classic cell aggregation still means
// something), and the full history rides along for reduceEpochs.
func epochTrial(anw *anonlead.Network, proto string, ropts []anonlead.Option, sc anonlead.Scenario, rp *obs.RoundProfile) (Trial, error) {
	hist, err := anw.RunEpochs(context.Background(), proto, sc, ropts...)
	if err != nil {
		return Trial{}, fmt.Errorf("harness: %w", err)
	}
	trial := Trial{Success: hist.Elected == len(hist.Epochs), RoundProf: rp, EpochHist: &hist}
	trial.Metrics = anonlead.Metrics{
		Rounds:        hist.TotalRounds,
		ChargedRounds: hist.TotalCharged,
		Messages:      hist.TotalMessages,
		Bits:          hist.TotalBits,
	}
	if n := len(hist.Epochs); n > 0 {
		last := hist.Epochs[n-1]
		trial.Crashed = last.Crashed
		if last.Elected {
			trial.Leaders, trial.LeaderID, trial.Unique = []int{last.Leader}, last.LeaderID, true
		}
	}
	return trial, nil
}
