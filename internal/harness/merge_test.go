package harness

import (
	"reflect"
	"strings"
	"testing"
)

// mergeCell builds a distinguishable dummy cell for merge tests; the
// merge never inspects measurements, only identity and JSON equality.
func mergeCell(n int, messages float64) ArtifactCell {
	return ArtifactCell{Protocol: "ire", Family: "cycle", N: n,
		Trials: 4, Successes: 4, Messages: messages}
}

// partial assembles a partial artifact covering the given plan indices of
// a total-cell plan.
func partial(total int, indices []int, cells ...ArtifactCell) Artifact {
	return Artifact{
		Schema:   ArtifactSchema,
		RootSeed: 7,
		Workers:  4,
		Shards:   4,
		Plan:     &ArtifactPlan{Total: total, Indices: indices},
		Cells:    cells,
	}
}

// TestMergeArtifacts checks the happy path: disjoint partials reassemble
// into the full artifact with cells at their plan indices, timings zeroed,
// no plan header, and the consensus engine shape.
func TestMergeArtifacts(t *testing.T) {
	p0 := partial(4, []int{0, 1}, mergeCell(10, 100), mergeCell(11, 110))
	p0.ElapsedSeconds, p0.TrialsPerSecond = 3.5, 2.3
	p1 := partial(4, []int{2, 3}, mergeCell(12, 120), mergeCell(13, 130))

	// Order of delivery must not matter.
	for _, parts := range [][]Artifact{{p0, p1}, {p1, p0}} {
		m, err := MergeArtifacts(parts)
		if err != nil {
			t.Fatal(err)
		}
		if m.Schema != ArtifactSchema || m.RootSeed != 7 || m.Workers != 4 || m.Shards != 4 {
			t.Fatalf("merged header wrong: %+v", m)
		}
		if m.Plan != nil {
			t.Fatal("merged artifact kept a plan header")
		}
		if m.ElapsedSeconds != 0 || m.TrialsPerSecond != 0 {
			t.Fatalf("merged timings not zeroed: %+v", m)
		}
		want := []ArtifactCell{mergeCell(10, 100), mergeCell(11, 110), mergeCell(12, 120), mergeCell(13, 130)}
		if !reflect.DeepEqual(m.Cells, want) {
			t.Fatalf("merged cells wrong:\n%+v\nwant\n%+v", m.Cells, want)
		}
	}
}

// TestMergeArtifactsDuplicates checks retry-overlap semantics: the same
// plan index delivered twice with identical content merges cleanly, but
// two different cells for one index are a conflict.
func TestMergeArtifactsDuplicates(t *testing.T) {
	p0 := partial(3, []int{0, 1}, mergeCell(10, 100), mergeCell(11, 110))
	overlap := partial(3, []int{1, 2}, mergeCell(11, 110), mergeCell(12, 120))
	m, err := MergeArtifacts([]Artifact{p0, overlap})
	if err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if len(m.Cells) != 3 || m.Cells[1].Messages != 110 {
		t.Fatalf("merged cells wrong: %+v", m.Cells)
	}

	conflict := partial(3, []int{1, 2}, mergeCell(11, 999), mergeCell(12, 120))
	if _, err := MergeArtifacts([]Artifact{p0, conflict}); err == nil ||
		!strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("conflicting duplicate not rejected: %v", err)
	}
}

// TestMergeArtifactsSchemaMismatch checks a v5 partial among v6 partials
// is rejected — cell layouts differ, so a merged file would lie about its
// schema.
func TestMergeArtifactsSchemaMismatch(t *testing.T) {
	p0 := partial(2, []int{0}, mergeCell(10, 100))
	p1 := partial(2, []int{1}, mergeCell(11, 110))
	p1.Schema = ArtifactSchemaV5
	if _, err := MergeArtifacts([]Artifact{p0, p1}); err == nil ||
		!strings.Contains(err.Error(), "schema mismatch") {
		t.Fatalf("mixed v6+v5 partials not rejected: %v", err)
	}
	// Uniformly v5 partials merge fine — the schema just has to agree.
	p0.Schema = ArtifactSchemaV5
	m, err := MergeArtifacts([]Artifact{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != ArtifactSchemaV5 {
		t.Fatalf("merged schema %q", m.Schema)
	}
}

// TestMergeArtifactsEmptyPartial checks a worker that was assigned no
// cells: its empty partial contributes plan agreement but no seed or
// engine constraints.
func TestMergeArtifactsEmptyPartial(t *testing.T) {
	p0 := partial(2, []int{0, 1}, mergeCell(10, 100), mergeCell(11, 110))
	empty := partial(2, []int{})
	empty.RootSeed, empty.Workers, empty.Shards = 0, 0, 0 // nothing ran
	m, err := MergeArtifacts([]Artifact{empty, p0})
	if err != nil {
		t.Fatal(err)
	}
	if m.RootSeed != 7 || len(m.Cells) != 2 {
		t.Fatalf("merge with empty partial wrong: %+v", m)
	}
	// All-empty partials cannot cover anything.
	if _, err := MergeArtifacts([]Artifact{empty}); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("all-empty merge not rejected: %v", err)
	}
}

// TestMergeArtifactsErrors covers the remaining rejection cases: no
// partials, missing plan headers, index/cell count mismatch, plan-size
// and root-seed disagreement, out-of-range indices, and gaps.
func TestMergeArtifactsErrors(t *testing.T) {
	if _, err := MergeArtifacts(nil); err == nil {
		t.Fatal("empty input accepted")
	}

	noPlan := partial(2, []int{0}, mergeCell(10, 100))
	noPlan.Plan = nil
	if _, err := MergeArtifacts([]Artifact{noPlan}); err == nil ||
		!strings.Contains(err.Error(), "no plan header") {
		t.Fatalf("missing plan header not rejected: %v", err)
	}

	short := partial(2, []int{0, 1}, mergeCell(10, 100)) // 2 indices, 1 cell
	if _, err := MergeArtifacts([]Artifact{short}); err == nil ||
		!strings.Contains(err.Error(), "carries") {
		t.Fatalf("index/cell mismatch not rejected: %v", err)
	}

	p0 := partial(2, []int{0}, mergeCell(10, 100))
	sized := partial(3, []int{1}, mergeCell(11, 110))
	if _, err := MergeArtifacts([]Artifact{p0, sized}); err == nil ||
		!strings.Contains(err.Error(), "plan size mismatch") {
		t.Fatalf("plan-size mismatch not rejected: %v", err)
	}

	seeded := partial(2, []int{1}, mergeCell(11, 110))
	seeded.RootSeed = 99
	if _, err := MergeArtifacts([]Artifact{p0, seeded}); err == nil ||
		!strings.Contains(err.Error(), "root seed mismatch") {
		t.Fatalf("root-seed mismatch not rejected: %v", err)
	}

	ranged := partial(2, []int{5}, mergeCell(11, 110))
	if _, err := MergeArtifacts([]Artifact{p0, ranged}); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range index not rejected: %v", err)
	}

	if _, err := MergeArtifacts([]Artifact{p0}); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("coverage gap not rejected: %v", err)
	}
}

// TestMergeArtifactsHeterogeneousEngines checks the cross-machine case:
// partials from differently-sized worker pools merge, but no single
// honest Workers/Shards value exists, so both zero out.
func TestMergeArtifactsHeterogeneousEngines(t *testing.T) {
	p0 := partial(2, []int{0}, mergeCell(10, 100))
	p1 := partial(2, []int{1}, mergeCell(11, 110))
	p1.Workers, p1.Shards = 16, 8
	m, err := MergeArtifacts([]Artifact{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != 0 || m.Shards != 0 {
		t.Fatalf("heterogeneous engines not zeroed: workers=%d shards=%d", m.Workers, m.Shards)
	}
}
