package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"anonlead/internal/obs"
	"anonlead/internal/stats"
)

// ArtifactSchema identifies the BENCH_harness.json format version. Bump it
// when the cell layout changes so trajectory tooling can tell formats apart.
//
// v6 added a repeated-election cell's scenario descriptor, part of its
// identity, and its epochs aggregates; single-election cells omit both.
//
// v7 keeps only what the sweep measured, each fact once, so a file is a
// pure function of (plan, root seed) and any pool size writes the same
// bytes. The header loses the pool size (workers and shards) and the wall
// clock (elapsed seconds and trials per second): how the sweep ran, not
// what it measured, and lebench prints them to stderr instead. A cell
// loses its profile regime, which its n picks, and its success rate with
// the rate's Wilson interval, which successes and trials give. Its epochs
// object loses the epoch count, fault mode, carry flag and trial count,
// which the scenario descriptor and the cell's trials already say.
const ArtifactSchema = "anonlead/bench-harness/v7"

// ArtifactDist is the persisted distribution of one per-trial metric: the
// spread around the mean that the flat per-cell fields already carry. All
// values are over the cell's trials; benchdiff compares them like every
// other field of the cell.
type ArtifactDist struct {
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// newArtifactDist converts an in-memory distribution to its persisted
// shape (N and Mean live elsewhere in the cell: trials and the flat mean).
func newArtifactDist(d stats.Dist) *ArtifactDist {
	return &ArtifactDist{
		StdDev: d.StdDev, Min: d.Min, Max: d.Max,
		P50: d.P50, P90: d.P90, P99: d.P99,
	}
}

// ArtifactCell is one sweep cell in the machine-readable artifact: the
// measured aggregate plus the graph profile and the paper's predicted
// complexities for that cell.
type ArtifactCell struct {
	Protocol    string  `json:"protocol"`
	Family      string  `json:"family"`
	N           int     `json:"n"`
	M           int     `json:"m"`
	Diameter    int     `json:"diameter"`
	MixingTime  int     `json:"tmix"`
	Conductance float64 `json:"phi"`
	PresumedN   int     `json:"presumed_n,omitempty"`
	// Adversary is the canonical fault-injection descriptor of the cell
	// (adversary.Spec.Descriptor; "" = fault-free). Part of the cell's
	// identity for trajectory alignment.
	Adversary string `json:"adversary,omitempty"`
	// Scenario is the epoch scenario descriptor of a repeated-election
	// cell (anonlead.Scenario.Descriptor; "" = classic single-election cell).
	// Part of the cell's identity for trajectory alignment. Schema v6.
	Scenario string `json:"scenario,omitempty"`

	Trials       int     `json:"trials"`
	Successes    int     `json:"successes"`
	MultiLeaders int     `json:"multi_leaders"`
	ZeroLeaders  int     `json:"zero_leaders"`
	Messages     float64 `json:"messages"`
	Bits         float64 `json:"bits"`
	Rounds       float64 `json:"rounds"`
	Charged      float64 `json:"charged"`
	// Mean adversary-dropped packets and crash-stopped nodes per trial
	// (absent on fault-free cells).
	Dropped      float64 `json:"dropped,omitempty"`
	CrashedNodes float64 `json:"crashed_nodes,omitempty"`

	// Per-trial metric distributions; ReadArtifact refuses a cell without
	// them.
	MessagesDist *ArtifactDist `json:"messages_dist,omitempty"`
	BitsDist     *ArtifactDist `json:"bits_dist,omitempty"`
	RoundsDist   *ArtifactDist `json:"rounds_dist,omitempty"`
	ChargedDist  *ArtifactDist `json:"charged_dist,omitempty"`

	// RoundProfile is the cell's deterministic round-resolved histogram —
	// the trials' per-round message/halt bucket counts summed in
	// trial-index order (present only when the sweep ran with round
	// profiling enabled).
	RoundProfile *obs.RoundProfile `json:"round_profile,omitempty"`

	// Epochs carries the repeated-election aggregates of an epoch scenario
	// cell — amortized per-epoch cost, recovery time, per-epoch profiles
	// (schema v6; present only on scenario cells).
	Epochs *EpochStats `json:"epochs,omitempty"`

	PredictedMsgs float64 `json:"predicted_msgs"`
	PredictedTime float64 `json:"predicted_time"`
}

// Artifact is the BENCH_harness.json payload: one orchestrated sweep in a
// machine-readable shape, emitted so CI can archive per-PR results and a
// trajectory tool can diff the cells across PRs. Every field is a function
// of the plan and root seed: no pool size and no wall clock.
type Artifact struct {
	Schema   string         `json:"schema"`
	RootSeed uint64         `json:"root_seed"`
	Cells    []ArtifactCell `json:"cells"`
}

// NewArtifact assembles the artifact from a sweep's specs and the cells
// they produced: a deterministic function of the specs and root seed. The
// Orchestrator and the duration are ignored; they remain only so existing
// callers compile.
func NewArtifact(_ Orchestrator, specs []CellSpec, cells []Cell, _ time.Duration) Artifact {
	a := Artifact{Schema: ArtifactSchema, Cells: make([]ArtifactCell, 0, len(cells))}
	if len(specs) > 0 {
		a.RootSeed = specs[0].Opts.Seed
	}
	for i, c := range cells {
		ac := ArtifactCell{
			Protocol:     string(c.Protocol),
			Family:       c.Workload.Family,
			N:            c.Workload.N,
			Trials:       c.Trials,
			Successes:    c.Successes,
			MultiLeaders: c.MultiLeaders,
			ZeroLeaders:  c.ZeroLeaders,
			Messages:     c.Messages,
			Bits:         c.Bits,
			Rounds:       c.Rounds,
			Charged:      c.Charged,
			Dropped:      c.Dropped,
			CrashedNodes: c.CrashedNodes,
			MessagesDist: newArtifactDist(c.MessagesDist),
			BitsDist:     newArtifactDist(c.BitsDist),
			RoundsDist:   newArtifactDist(c.RoundsDist),
			ChargedDist:  newArtifactDist(c.ChargedDist),
			RoundProfile: c.RoundProf.Clone(),
			Epochs:       c.EpochStats,
		}
		if prof := c.Profile; prof != nil {
			ac.M = prof.M
			ac.Diameter = prof.Diameter
			ac.MixingTime = prof.MixingTime
			ac.Conductance = prof.Conductance
			ac.PredictedMsgs = predictMsgs(c.Protocol, prof)
			ac.PredictedTime = predictTime(c.Protocol, prof)
		}
		if i < len(specs) {
			ac.PresumedN = specs[i].Opts.PresumedN
			if adv := specs[i].Opts.Adversary; adv != nil {
				ac.Adversary = adv.Descriptor() // "" for a zero-rate spec
			}
			if sc := specs[i].Opts.Epochs; sc != nil {
				ac.Scenario = sc.Descriptor()
			}
		}
		a.Cells = append(a.Cells, ac)
	}
	return a
}

// JSON renders the artifact with stable field order, two-space indentation,
// and a trailing newline.
func (a Artifact) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("harness: marshal artifact: %w", err)
	}
	return append(buf, '\n'), nil
}

// WriteFile writes the artifact to path (conventionally BENCH_harness.json).
func (a Artifact) WriteFile(path string) error {
	buf, err := a.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("harness: write artifact: %w", err)
	}
	return nil
}

// ReadArtifact decodes a bench artifact of the current schema. Any other
// schema is rejected by name, and so is a cell without its four
// distribution objects, so trajectory tooling fails loudly on foreign or
// truncated files rather than comparing garbage.
func ReadArtifact(buf []byte) (Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(buf, &a); err != nil {
		return Artifact{}, fmt.Errorf("harness: decode artifact: %w", err)
	}
	if a.Schema != ArtifactSchema {
		return Artifact{}, fmt.Errorf("harness: unknown artifact schema %q (want %s)", a.Schema, ArtifactSchema)
	}
	for i, c := range a.Cells {
		if c.MessagesDist == nil || c.BitsDist == nil || c.RoundsDist == nil || c.ChargedDist == nil {
			return Artifact{}, fmt.Errorf("harness: decode artifact: cell %d (%s on %s/%d) lacks its distribution objects",
				i, c.Protocol, c.Family, c.N)
		}
	}
	return a, nil
}

// ReadArtifactFile reads and decodes a bench artifact from disk.
func ReadArtifactFile(path string) (Artifact, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, fmt.Errorf("harness: read artifact: %w", err)
	}
	a, err := ReadArtifact(buf)
	if err != nil {
		return Artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
