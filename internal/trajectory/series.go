package trajectory

import (
	"fmt"
	"path/filepath"
	"strings"

	"anonlead/internal/harness"
)

// Series is an ordered run of bench artifacts, oldest first — the
// cross-PR trajectory the pairwise Diff only ever sees two points of.
// Build one with NewSeries (in-memory artifacts) or LoadSeries (files),
// then classify per-metric trends with Trends.
type Series struct {
	// Labels name the series points in order (file basenames for
	// LoadSeries, indices otherwise).
	Labels    []string
	Artifacts []harness.Artifact
}

// NewSeries assembles a series from artifacts in chronological order.
// labels may be nil (points are then named by index); a series needs at
// least two points, otherwise there is no trajectory to classify.
func NewSeries(artifacts []harness.Artifact, labels []string) (Series, error) {
	if len(artifacts) < 2 {
		return Series{}, fmt.Errorf("trajectory: series needs >= 2 artifacts, got %d", len(artifacts))
	}
	if labels != nil && len(labels) != len(artifacts) {
		return Series{}, fmt.Errorf("trajectory: %d labels for %d artifacts", len(labels), len(artifacts))
	}
	s := Series{Artifacts: artifacts, Labels: labels}
	if s.Labels == nil {
		s.Labels = make([]string, len(artifacts))
		for i := range s.Labels {
			s.Labels[i] = fmt.Sprintf("#%d", i+1)
		}
	}
	return s, nil
}

// LoadSeries reads artifact files in chronological order (oldest first)
// and labels the points with the file basenames (disambiguated by index
// when names repeat, as they do for archived copies of the same
// BENCH_harness.json).
func LoadSeries(paths ...string) (Series, error) {
	artifacts := make([]harness.Artifact, len(paths))
	labels := make([]string, len(paths))
	seen := map[string]int{}
	for i, p := range paths {
		a, err := harness.ReadArtifactFile(p)
		if err != nil {
			return Series{}, err
		}
		artifacts[i] = a
		name := filepath.Base(p)
		seen[name]++
		if seen[name] > 1 {
			name = fmt.Sprintf("%s (%d)", name, seen[name])
		}
		labels[i] = name
	}
	return NewSeries(artifacts, labels)
}

// Trend classifies one metric's trajectory over a whole series.
type Trend string

// The trend verdicts. Net movement is judged between the series
// endpoints with the same two gates the pairwise classifier uses
// (relative tolerance AND Welch standard errors — or Wilson-interval
// disjointness for the success rate), so a trend is never called on
// trial noise.
const (
	TrendImproving  Trend = "improving"
	TrendFlat       Trend = "flat"
	TrendRegressing Trend = "regressing"
)

// trendOf maps a pairwise endpoint classification onto a trend verdict.
func trendOf(s Status) Trend {
	switch s {
	case Improved:
		return TrendImproving
	case Regressed:
		return TrendRegressing
	default:
		return TrendFlat
	}
}

// MetricTrend is one metric's trajectory on one aligned cell.
type MetricTrend struct {
	Metric string `json:"metric"`
	// Values holds the metric's per-artifact means (the success rate for
	// success_rate), in series order.
	Values []float64 `json:"values"`
	// First and Last are the endpoint values (Values[0] and Values[-1]).
	First float64 `json:"first"`
	Last  float64 `json:"last"`
	// RelDelta is (last-first)/|first| (0 when first is 0).
	RelDelta float64 `json:"rel_delta"`
	// StdErr is the Welch standard error of last-first (0 when either
	// endpoint lacks distributions).
	StdErr float64 `json:"stderr"`
	// Steps classifies each adjacent pair of points with the pairwise
	// machinery (len = points-1): the texture behind the net verdict, so
	// a regression introduced three artifacts ago is distinguishable from
	// a slow drift.
	Steps []Status `json:"steps"`
	Trend Trend    `json:"trend"`
}

// CellTrend is one aligned cell's trajectory across all metrics.
type CellTrend struct {
	Key     Key           `json:"key"`
	Metrics []MetricTrend `json:"metrics"`
}

// SeriesReport is the full trend classification of a series.
type SeriesReport struct {
	Labels     []string    `json:"labels"`
	Schemas    []string    `json:"schemas"`
	Thresholds Thresholds  `json:"thresholds"`
	Cells      []CellTrend `json:"cells"`
	// Partial lists cell keys whose occurrences are missing from at least
	// one series point (including duplicate occurrences that exist only
	// in some artifacts, even when the key's common occurrences are
	// tracked). They are reported, not classified — a cell that comes and
	// goes has no well-defined trajectory, and hiding it could hide a
	// regression.
	Partial []Key `json:"partial,omitempty"`

	Improving  int `json:"improving"`
	Flat       int `json:"flat"`
	Regressing int `json:"regressing"`
}

// HasRegressions reports whether any metric's net trend regresses.
func (r SeriesReport) HasRegressions() bool { return r.Regressing > 0 }

// seriesMetrics names the per-cell metrics a trend is computed for, in
// report order: the cost metrics plus the success rate.
var seriesMetrics = append(append([]string{}, costMetrics...), "success_rate")

// Trends aligns the series' cells across every artifact and classifies
// each metric's net trajectory. A cell occurrence is tracked only when
// present in every point (duplicates pair by occurrence index, like
// Diff); tracked cells follow the first artifact's order.
func (s Series) Trends(th Thresholds) SeriesReport {
	th = th.withDefaults()
	r := SeriesReport{Labels: s.Labels, Thresholds: th}
	for _, a := range s.Artifacts {
		r.Schemas = append(r.Schemas, a.Schema)
	}

	// Per-artifact occurrence index: key -> cell indices in order.
	occ := make([]map[Key][]int, len(s.Artifacts))
	for i, a := range s.Artifacts {
		occ[i] = make(map[Key][]int, len(a.Cells))
		for j, c := range a.Cells {
			k := keyOf(c)
			occ[i][k] = append(occ[i][k], j)
		}
	}

	// A key is partial when its occurrence count differs anywhere in the
	// series: occurrences beyond the common minimum exist in some points
	// but not all — whether the extras live in the first artifact, a later
	// one, or the key is absent somewhere entirely.
	partial := map[Key]bool{}
	maxOcc := map[Key]int{}
	for i := range s.Artifacts {
		for k, idxs := range occ[i] {
			if len(idxs) > maxOcc[k] {
				maxOcc[k] = len(idxs)
			}
		}
	}
	for k, mx := range maxOcc {
		mn := mx
		for i := range s.Artifacts {
			if l := len(occ[i][k]); l < mn {
				mn = l
			}
		}
		if mn != mx {
			partial[k] = true
		}
	}

	seen := map[Key]int{} // occurrences of key consumed from the first artifact
	for _, first := range s.Artifacts[0].Cells {
		k := keyOf(first)
		j := seen[k]
		seen[k]++
		// The j-th occurrence must exist in every point of the series.
		cells := make([]harness.ArtifactCell, len(s.Artifacts))
		tracked := true
		for i := range s.Artifacts {
			idxs := occ[i][k]
			if j >= len(idxs) {
				tracked = false
				break
			}
			cells[i] = s.Artifacts[i].Cells[idxs[j]]
		}
		if !tracked {
			continue
		}
		ct := CellTrend{Key: k}
		for _, m := range seriesMetrics {
			mt := metricTrend(m, cells, th)
			switch mt.Trend {
			case TrendImproving:
				r.Improving++
			case TrendRegressing:
				r.Regressing++
			default:
				r.Flat++
			}
			ct.Metrics = append(ct.Metrics, mt)
		}
		r.Cells = append(r.Cells, ct)
	}
	// Deterministic partial order: first appearance across the series.
	emitted := map[Key]bool{}
	for _, a := range s.Artifacts {
		for _, c := range a.Cells {
			k := keyOf(c)
			if partial[k] && !emitted[k] {
				emitted[k] = true
				r.Partial = append(r.Partial, k)
			}
		}
	}
	return r
}

// metricTrend classifies one metric's trajectory over the aligned cells
// (one per series point) by reusing the pairwise classifier: the net
// verdict compares the endpoints, Steps compare each adjacent pair.
func metricTrend(metric string, cells []harness.ArtifactCell, th Thresholds) MetricTrend {
	classify := func(base, head harness.ArtifactCell) MetricDiff {
		if metric == "success_rate" {
			return classifySuccess(base, head)
		}
		return classifyCost(metric, cellDist(base, metric), cellDist(head, metric), th)
	}
	net := classify(cells[0], cells[len(cells)-1])
	mt := MetricTrend{
		Metric:   metric,
		First:    net.Base,
		Last:     net.Head,
		RelDelta: net.RelDelta,
		StdErr:   net.StdErr,
		Trend:    trendOf(net.Status),
	}
	for _, c := range cells {
		var v float64
		switch metric {
		case "messages":
			v = c.Messages
		case "bits":
			v = c.Bits
		case "rounds":
			v = c.Rounds
		case "charged":
			v = c.Charged
		case "success_rate":
			v = rate(c)
		}
		mt.Values = append(mt.Values, v)
	}
	for i := 1; i < len(cells); i++ {
		mt.Steps = append(mt.Steps, classify(cells[i-1], cells[i]).Status)
	}
	return mt
}

// String renders the trend compactly ("1000 → 900 → 500 (improving)") for
// logs and error messages.
func (mt MetricTrend) String() string {
	vals := make([]string, len(mt.Values))
	for i, v := range mt.Values {
		vals[i] = fmtVal(v)
	}
	return fmt.Sprintf("%s: %s (%s)", mt.Metric, strings.Join(vals, " → "), mt.Trend)
}
