// Package trajectory compares two bench artifacts: it aligns the sweep
// cells of a base and a head BENCH_harness.json by workload identity and
// classifies each cost metric as improved, unchanged, or regressed.
// cmd/benchdiff is the CLI. A longer history is a sequence of such pairs
// (the committed baseline's git log; any two archived artifacts);
// rendering a single artifact is internal/report's job.
//
// The paper's guarantees are probabilistic (w.h.p. message/time bounds),
// so per-cell measurements carry real trial variance; a useful regression
// gate must separate effects from noise. The classifier therefore demands
// an effect exceed BOTH a relative tolerance and a multiple of the Welch
// standard error of the difference of means, computed from the per-trial
// distributions every artifact cell carries.
package trajectory

import (
	"encoding/json"
	"fmt"
	"math"

	"anonlead/internal/harness"
	"anonlead/internal/stats"
)

// Key identifies a sweep cell across artifacts: the workload coordinates
// that make two cells comparable. Everything else (graph profile, trial
// counts, measurements) may legitimately differ between runs.
type Key struct {
	Protocol  string `json:"protocol"`
	Family    string `json:"family"`
	N         int    `json:"n"`
	PresumedN int    `json:"presumed_n,omitempty"`
	// Adversary is the fault-injection descriptor ("" = fault-free).
	Adversary string `json:"adversary,omitempty"`
	// ProfileMode is the resolved profile regime behind the cell's
	// tmix/Φ/diameter columns ("" = exact). An exact cell and an estimate cell of the same workload
	// measure against different predicted bounds, so a regime switch
	// reports as added/removed rather than a false cost regression.
	// Schema v4.
	ProfileMode string `json:"profile_mode,omitempty"`
	// Scenario is the epoch scenario descriptor of a repeated-election
	// cell ("" = classic single election, which is what every v1-v5 cell
	// aligns as). A scenario cell's metrics are multi-epoch totals, so a
	// scenario switch reports as added/removed rather than a false cost
	// regression. Schema v6.
	Scenario string `json:"scenario,omitempty"`
}

func keyOf(c harness.ArtifactCell) Key {
	return Key{Protocol: c.Protocol, Family: c.Family, N: c.N,
		PresumedN: c.PresumedN, Adversary: c.Adversary,
		ProfileMode: c.ProfileMode, Scenario: c.Scenario}
}

// String renders the key the way the rendered tables name cells.
func (k Key) String() string {
	s := fmt.Sprintf("%s %s/%d", k.Protocol, k.Family, k.N)
	if k.PresumedN > 0 && k.PresumedN != k.N {
		s += fmt.Sprintf(" (presumed n=%d)", k.PresumedN)
	}
	if k.Adversary != "" {
		s += fmt.Sprintf(" [%s]", k.Adversary)
	}
	if k.ProfileMode != "" {
		s += fmt.Sprintf(" {%s}", k.ProfileMode)
	}
	if k.Scenario != "" {
		s += fmt.Sprintf(" <%s>", k.Scenario)
	}
	return s
}

// Status classifies one metric of one aligned cell.
type Status string

// The classifications. For cost metrics lower is better; for the success
// rate higher is better — Regressed always means "got worse". Drifted is
// reserved for the predicted-vs-measured ratio metrics: the measurement
// moved away from (or toward) the paper's bound relative to the baseline
// by more than the drift tolerance, in either direction.
const (
	Improved  Status = "improved"
	Unchanged Status = "unchanged"
	Regressed Status = "regressed"
	Drifted   Status = "drifted"
)

// Thresholds tunes the classifier. The zero value selects the defaults.
type Thresholds struct {
	// RelTol is the minimum relative effect |head-base|/|base| to call a
	// change (default 0.05). Guards against flagging tiny absolute drifts
	// on metrics with near-zero variance.
	RelTol float64 `json:"rel_tol"`
	// Sigmas is the minimum effect in units of the Welch standard error
	// of the difference of means (default 3). Guards against flagging
	// trial noise. Only applies when both artifacts carry distributions.
	Sigmas float64 `json:"sigmas"`
	// DriftTol is the minimum relative change of a measured/predicted
	// ratio between base and head to flag predicted-vs-measured drift
	// (default 0.25). Both artifacts persist the paper-bound predictions
	// per cell, so this gate catches a cell walking away from its
	// complexity bound even when raw costs moved "legitimately".
	DriftTol float64 `json:"drift_tol"`
}

// withDefaults resolves zero fields to the default thresholds.
func (t Thresholds) withDefaults() Thresholds {
	if t.RelTol <= 0 {
		t.RelTol = 0.05
	}
	if t.Sigmas <= 0 {
		t.Sigmas = 3
	}
	if t.DriftTol <= 0 {
		t.DriftTol = 0.25
	}
	return t
}

// MetricDiff is the comparison of one metric on one aligned cell.
type MetricDiff struct {
	Metric string `json:"metric"`
	// Base and Head are the per-trial means (or rates for success_rate).
	Base float64 `json:"base"`
	Head float64 `json:"head"`
	// RelDelta is (head-base)/|base|. When base is 0 it stays 0 (JSON has
	// no Inf) and Status alone carries the verdict.
	RelDelta float64 `json:"rel_delta"`
	// StdErr is the Welch standard error of head-base (0 when either side
	// lacks distributions or has fewer than two trials).
	StdErr float64 `json:"stderr"`
	Status Status  `json:"status"`
}

// CellDiff is one aligned cell's comparison across all metrics.
type CellDiff struct {
	Key     Key          `json:"key"`
	Metrics []MetricDiff `json:"metrics"`
}

// Report is the full artifact comparison.
type Report struct {
	BaseSchema string     `json:"base_schema"`
	HeadSchema string     `json:"head_schema"`
	Thresholds Thresholds `json:"thresholds"`
	Cells      []CellDiff `json:"cells"`
	// Added and Removed list cells present in only one artifact. They are
	// reported, not classified — a shrunk sweep can hide a regression, so
	// the markdown summary calls them out loudly.
	Added   []Key `json:"added,omitempty"`
	Removed []Key `json:"removed,omitempty"`

	Improved  int `json:"improved"`
	Unchanged int `json:"unchanged"`
	Regressed int `json:"regressed"`
	// Drifted counts predicted-vs-measured ratio metrics that moved
	// beyond DriftTol between base and head (gated by -fail-on drift,
	// independently of the cost-regression gate).
	Drifted int `json:"drifted"`
}

// HasRegressions reports whether any aligned metric regressed.
func (r Report) HasRegressions() bool { return r.Regressed > 0 }

// HasDrift reports whether any measured/predicted ratio drifted.
func (r Report) HasDrift() bool { return r.Drifted > 0 }

// JSON renders the report machine-readably.
func (r Report) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("trajectory: marshal report: %w", err)
	}
	return append(buf, '\n'), nil
}

// costMetrics names the lower-is-better metrics, in report order.
var costMetrics = []string{"messages", "bits", "rounds", "charged"}

// cellDist extracts the named cost metric's distribution from a cell,
// rehydrating trials and mean.
func cellDist(c harness.ArtifactCell, metric string) stats.Dist {
	switch metric {
	case "messages":
		return c.MessagesDist.Dist(c.Trials, c.Messages)
	case "bits":
		return c.BitsDist.Dist(c.Trials, c.Bits)
	case "rounds":
		return c.RoundsDist.Dist(c.Trials, c.Rounds)
	case "charged":
		return c.ChargedDist.Dist(c.Trials, c.Charged)
	default:
		panic("trajectory: unknown metric " + metric)
	}
}

// classifyCost compares one lower-is-better metric. A change is called
// only when the effect clears the relative tolerance AND Sigmas standard
// errors of the difference.
func classifyCost(metric string, base, head stats.Dist, th Thresholds) MetricDiff {
	d := MetricDiff{Metric: metric, Base: base.Mean, Head: head.Mean, Status: Unchanged}
	delta := head.Mean - base.Mean
	if base.Mean != 0 {
		d.RelDelta = delta / math.Abs(base.Mean)
	}
	d.StdErr = stats.WelchStdErr(base, head)
	if delta == 0 {
		return d
	}
	// Relative gate; a metric appearing from zero is always a change.
	if base.Mean != 0 && math.Abs(delta) <= th.RelTol*math.Abs(base.Mean) {
		return d
	}
	// Variance gate (vacuous for zero-variance samples).
	if math.Abs(delta) <= th.Sigmas*d.StdErr {
		return d
	}
	if delta > 0 {
		d.Status = Regressed
	} else {
		d.Status = Improved
	}
	return d
}

// classifySuccess compares the success rate (higher is better) by Wilson
// interval disjointness.
func classifySuccess(base, head harness.ArtifactCell) MetricDiff {
	baseRate, headRate := rate(base), rate(head)
	d := MetricDiff{Metric: "success_rate", Base: baseRate, Head: headRate, Status: Unchanged}
	if baseRate != 0 {
		d.RelDelta = (headRate - baseRate) / baseRate
	}
	baseLo, baseHi := stats.Wilson(base.Successes, base.Trials)
	headLo, headHi := stats.Wilson(head.Successes, head.Trials)
	switch {
	case headHi < baseLo:
		d.Status = Regressed
	case headLo > baseHi:
		d.Status = Improved
	}
	return d
}

func rate(c harness.ArtifactCell) float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Trials)
}

// driftMetrics pairs each persisted prediction with the measurement it
// bounds: the paper's message bound against mean messages, its time bound
// against mean rounds.
var driftMetrics = []struct {
	name      string
	measured  func(harness.ArtifactCell) float64
	predicted func(harness.ArtifactCell) float64
}{
	{"msgs_vs_pred", func(c harness.ArtifactCell) float64 { return c.Messages },
		func(c harness.ArtifactCell) float64 { return c.PredictedMsgs }},
	{"time_vs_pred", func(c harness.ArtifactCell) float64 { return c.Rounds },
		func(c harness.ArtifactCell) float64 { return c.PredictedTime }},
}

// classifyDrift compares one measured/predicted ratio between base and
// head. A cell whose ratio moves by more than DriftTol relative to its
// baseline ratio is Drifted — the measurement walked away from (or
// toward) the paper's bound, a different signal than a raw cost change.
// Returns ok=false when either side lacks a usable prediction (ratio
// undefined), in which case no metric is emitted.
func classifyDrift(name string, baseMeas, basePred, headMeas, headPred float64, th Thresholds) (MetricDiff, bool) {
	if basePred <= 0 || headPred <= 0 || baseMeas <= 0 || headMeas <= 0 {
		return MetricDiff{}, false
	}
	baseRatio, headRatio := baseMeas/basePred, headMeas/headPred
	d := MetricDiff{Metric: name, Base: baseRatio, Head: headRatio, Status: Unchanged}
	d.RelDelta = (headRatio - baseRatio) / baseRatio
	if math.Abs(d.RelDelta) > th.DriftTol {
		d.Status = Drifted
	}
	return d, true
}

// Diff aligns the cells of two artifacts by Key and classifies every
// metric. Aligned cells keep base order; duplicates of a key pair up by
// occurrence index, with unpaired occurrences reported as added/removed.
func Diff(base, head harness.Artifact, th Thresholds) Report {
	th = th.withDefaults()
	r := Report{
		BaseSchema: base.Schema,
		HeadSchema: head.Schema,
		Thresholds: th,
	}

	headIdx := make(map[Key][]int, len(head.Cells))
	for i, c := range head.Cells {
		k := keyOf(c)
		headIdx[k] = append(headIdx[k], i)
	}
	matchedHead := make([]bool, len(head.Cells))
	taken := make(map[Key]int, len(headIdx))

	for _, bc := range base.Cells {
		k := keyOf(bc)
		idxs := headIdx[k]
		if taken[k] >= len(idxs) {
			r.Removed = append(r.Removed, k)
			continue
		}
		hc := head.Cells[idxs[taken[k]]]
		matchedHead[idxs[taken[k]]] = true
		taken[k]++

		cd := CellDiff{Key: k}
		for _, m := range costMetrics {
			cd.Metrics = append(cd.Metrics,
				classifyCost(m, cellDist(bc, m), cellDist(hc, m), th))
		}
		cd.Metrics = append(cd.Metrics, classifySuccess(bc, hc))
		for _, dm := range driftMetrics {
			if md, ok := classifyDrift(dm.name,
				dm.measured(bc), dm.predicted(bc),
				dm.measured(hc), dm.predicted(hc), th); ok {
				cd.Metrics = append(cd.Metrics, md)
			}
		}
		for _, md := range cd.Metrics {
			switch md.Status {
			case Improved:
				r.Improved++
			case Regressed:
				r.Regressed++
			case Drifted:
				r.Drifted++
			default:
				r.Unchanged++
			}
		}
		r.Cells = append(r.Cells, cd)
	}
	for i, hc := range head.Cells {
		if !matchedHead[i] {
			r.Added = append(r.Added, keyOf(hc))
		}
	}
	return r
}

// DiffFiles loads two artifact files and diffs them under the default
// thresholds.
func DiffFiles(basePath, headPath string) (Report, error) {
	base, err := harness.ReadArtifactFile(basePath)
	if err != nil {
		return Report{}, err
	}
	head, err := harness.ReadArtifactFile(headPath)
	if err != nil {
		return Report{}, err
	}
	return Diff(base, head, Thresholds{}), nil
}
