package trajectory

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonlead/internal/harness"
)

// trendCell builds a v2+ cell with independent means per metric so one
// series can carry an improving, a flat, and a regressing metric at once.
func trendCell(msgs, bits, rounds, charged float64, trials, successes int, stddev float64) harness.ArtifactCell {
	dist := func(mean float64) *harness.ArtifactDist {
		return &harness.ArtifactDist{
			StdDev: stddev, Min: mean - stddev, Max: mean + stddev,
			P50: mean, P90: mean + stddev, P99: mean + stddev,
		}
	}
	return harness.ArtifactCell{
		Protocol: "ire", Family: "expander", N: 64,
		Trials: trials, Successes: successes,
		Messages: msgs, Bits: bits, Rounds: rounds, Charged: charged,
		MessagesDist: dist(msgs), BitsDist: dist(bits),
		RoundsDist: dist(rounds), ChargedDist: dist(charged),
	}
}

// TestSeriesTrendClassification is the acceptance scenario: a synthetic
// 3-artifact series must classify an improving, a flat, and a regressing
// metric correctly, with the fourth (charged) flat inside noise.
func TestSeriesTrendClassification(t *testing.T) {
	// messages: 1000 -> 900 -> 500 (improving, tight variance)
	// bits:     1000 -> 1100 -> 2000 (regressing)
	// rounds:   1000 -> 1000 -> 1000 (flat)
	// charged:  1000 -> 1080 -> 1060 (net +6% but stddev 400 => noise-flat)
	series, err := NewSeries([]harness.Artifact{
		artifact(harness.ArtifactSchema, trendCell(1000, 1000, 1000, 1000, 10, 10, 0)),
		artifact(harness.ArtifactSchema, trendCell(900, 1100, 1000, 1080, 10, 10, 0)),
		artifact(harness.ArtifactSchema, trendCell(500, 2000, 1000, 1060, 10, 10, 0)),
	}, []string{"pr1", "pr2", "pr3"})
	if err != nil {
		t.Fatal(err)
	}
	// Give charged its noise: overwrite its dists with a wide spread.
	for i := range series.Artifacts {
		c := &series.Artifacts[i].Cells[0]
		c.ChargedDist.StdDev = 400
	}
	r := series.Trends(Thresholds{})
	if len(r.Cells) != 1 || len(r.Partial) != 0 {
		t.Fatalf("alignment wrong: %+v", r)
	}
	want := map[string]Trend{
		"messages":     TrendImproving,
		"bits":         TrendRegressing,
		"rounds":       TrendFlat,
		"charged":      TrendFlat, // 6% net effect buried under stddev 400
		"success_rate": TrendFlat,
	}
	for _, mt := range r.Cells[0].Metrics {
		if mt.Trend != want[mt.Metric] {
			t.Fatalf("%s classified %s, want %s (%s)", mt.Metric, mt.Trend, want[mt.Metric], mt)
		}
	}
	if r.Improving != 1 || r.Regressing != 1 || r.Flat != 3 {
		t.Fatalf("counts improving=%d flat=%d regressing=%d", r.Improving, r.Flat, r.Regressing)
	}
	if r.HasRegressions() != true {
		t.Fatal("regressing series not reported")
	}

	// The per-metric texture: messages' values and steps are in order.
	var msgs MetricTrend
	for _, mt := range r.Cells[0].Metrics {
		if mt.Metric == "messages" {
			msgs = mt
		}
	}
	if len(msgs.Values) != 3 || msgs.Values[0] != 1000 || msgs.Values[2] != 500 {
		t.Fatalf("messages values %v", msgs.Values)
	}
	if msgs.First != 1000 || msgs.Last != 500 || msgs.RelDelta != -0.5 {
		t.Fatalf("messages endpoints %+v", msgs)
	}
	if len(msgs.Steps) != 2 || msgs.Steps[1] != Improved {
		t.Fatalf("messages steps %v", msgs.Steps)
	}
}

// TestSeriesSuccessTrend: a success-rate collapse across the series is a
// regressing trend judged by Wilson disjointness, not the cost gates.
func TestSeriesSuccessTrend(t *testing.T) {
	series, err := NewSeries([]harness.Artifact{
		artifact(harness.ArtifactSchema, trendCell(100, 100, 100, 100, 50, 50, 1)),
		artifact(harness.ArtifactSchema, trendCell(100, 100, 100, 100, 50, 30, 1)),
		artifact(harness.ArtifactSchema, trendCell(100, 100, 100, 100, 50, 5, 1)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := series.Trends(Thresholds{})
	for _, mt := range r.Cells[0].Metrics {
		if mt.Metric == "success_rate" && mt.Trend != TrendRegressing {
			t.Fatalf("success collapse classified %s (%s)", mt.Trend, mt)
		}
	}
	if r.Labels[0] != "#1" || r.Labels[2] != "#3" {
		t.Fatalf("default labels %v", r.Labels)
	}
}

// TestSeriesPartialCells: a cell missing from any point is reported
// partial and never classified; cells appearing only later are partial too.
func TestSeriesPartialCells(t *testing.T) {
	stable := cell("ire", "expander", 64, 10, 10, 1000, 1)
	flaky := cell("flood", "complete", 32, 10, 10, 400, 1)
	late := cell("ire", "cycle", 16, 10, 10, 50, 1)
	series, err := NewSeries([]harness.Artifact{
		artifact(harness.ArtifactSchema, stable, flaky),
		artifact(harness.ArtifactSchema, stable),
		artifact(harness.ArtifactSchema, stable, flaky, late),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := series.Trends(Thresholds{})
	if len(r.Cells) != 1 || r.Cells[0].Key.Protocol != "ire" {
		t.Fatalf("tracked cells wrong: %+v", r.Cells)
	}
	if len(r.Partial) != 2 {
		t.Fatalf("partial %v", r.Partial)
	}
	if r.Partial[0].Protocol != "flood" || r.Partial[1].Family != "cycle" {
		t.Fatalf("partial order %v", r.Partial)
	}
}

// TestSeriesDuplicateOccurrences: duplicate keys pair by occurrence;
// the common occurrences are tracked and any occurrence-count mismatch
// anywhere in the series flags the key partial — including extras that
// exist only in later artifacts (they must not vanish silently).
func TestSeriesDuplicateOccurrences(t *testing.T) {
	a := cell("ire", "cycle", 16, 5, 5, 100, 1)
	b := cell("ire", "cycle", 16, 5, 5, 200, 1)
	series, err := NewSeries([]harness.Artifact{
		artifact(harness.ArtifactSchema, a),       // one occurrence
		artifact(harness.ArtifactSchema, a, b),    // a second appears later
		artifact(harness.ArtifactSchema, a, b, b), // and a third
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := series.Trends(Thresholds{})
	if len(r.Cells) != 1 {
		t.Fatalf("tracked %d cells, want 1 (the common occurrence)", len(r.Cells))
	}
	if len(r.Partial) != 1 || r.Partial[0].Family != "cycle" {
		t.Fatalf("later-only duplicate occurrences not reported partial: %+v", r.Partial)
	}

	// The mirror case: the first artifact carries MORE occurrences.
	series, err = NewSeries([]harness.Artifact{
		artifact(harness.ArtifactSchema, a, b),
		artifact(harness.ArtifactSchema, a),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r = series.Trends(Thresholds{})
	if len(r.Cells) != 1 || len(r.Partial) != 1 {
		t.Fatalf("first-artifact extra occurrence not partial: cells=%d partial=%v",
			len(r.Cells), r.Partial)
	}

	// Equal occurrence counts everywhere: both tracked, nothing partial.
	series, err = NewSeries([]harness.Artifact{
		artifact(harness.ArtifactSchema, a, b),
		artifact(harness.ArtifactSchema, a, b),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r = series.Trends(Thresholds{})
	if len(r.Cells) != 2 || len(r.Partial) != 0 {
		t.Fatalf("stable duplicates misreported: cells=%d partial=%v", len(r.Cells), r.Partial)
	}
}

func TestNewSeriesValidation(t *testing.T) {
	one := artifact(harness.ArtifactSchema)
	if _, err := NewSeries([]harness.Artifact{one}, nil); err == nil {
		t.Fatal("single-artifact series accepted")
	}
	if _, err := NewSeries([]harness.Artifact{one, one}, []string{"a"}); err == nil {
		t.Fatal("label/artifact length mismatch accepted")
	}
}

// TestLoadSeries round-trips artifacts through disk, labels by basename,
// and disambiguates repeated names.
func TestLoadSeries(t *testing.T) {
	dir := t.TempDir()
	a := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 1))
	write := func(sub string) string {
		buf, err := harness.Artifact.JSON(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, sub, "BENCH_harness.json")
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	s, err := LoadSeries(write("run1"), write("run2"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Labels[0] != "BENCH_harness.json" || !strings.Contains(s.Labels[1], "(2)") {
		t.Fatalf("labels %v", s.Labels)
	}
	r := s.Trends(Thresholds{})
	if len(r.Cells) != 1 || r.Regressing != 0 {
		t.Fatalf("identical series not flat: %+v", r)
	}

	if _, err := LoadSeries(write("run3"), filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
