package trajectory

import (
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"anonlead"
	"anonlead/internal/harness"
	"anonlead/internal/stats"
)

// cell builds an artifact cell with a given mean/stddev on every cost
// metric and a success count.
func cell(proto, family string, n, trials, successes int, mean, stddev float64) harness.Cell {
	dist := func() *stats.Dist {
		return &stats.Dist{
			StdDev: stddev, Min: mean - stddev, Max: mean + stddev,
			P50: mean, P90: mean + stddev, P99: mean + stddev,
		}
	}
	return harness.Cell{
		Protocol: harness.Protocol(proto), Workload: harness.Workload{Family: family, N: n},
		Trials: trials, Successes: successes,
		Messages: mean, Bits: mean, Rounds: mean, Charged: mean,
		MessagesDist: dist(), BitsDist: dist(), RoundsDist: dist(), ChargedDist: dist(),
	}
}

func artifact(schema string, cells ...harness.Cell) harness.Artifact {
	return harness.Artifact{Schema: schema, Cells: cells}
}

// onlyChange returns the one changed cell of r, failing unless there is
// exactly one and it is key.
func onlyChange(t *testing.T, r Report, key harness.CellKey) CellChange {
	t.Helper()
	if r.Clean() || len(r.Changed) != 1 || r.Changed[0].Key != key {
		t.Fatalf("want exactly %s changed: %+v", key, r)
	}
	return r.Changed[0]
}

var ireExpander64 = harness.CellKey{Protocol: "ire", Family: "expander", N: 64}

func TestDiffIdenticalArtifactsUnchanged(t *testing.T) {
	a := artifact(harness.ArtifactSchema,
		cell("ire", "expander", 64, 10, 10, 1000, 50),
		cell("flood", "complete", 32, 10, 10, 400, 0))
	r := Diff(a, a)
	if r.Aligned != 2 {
		t.Fatalf("aligned %d, want 2", r.Aligned)
	}
	if len(r.Added) != 0 || len(r.Removed) != 0 || len(r.Changed) != 0 || !r.Clean() {
		t.Fatalf("phantom changed/added/removed: %+v", r)
	}
}

func TestDiffFlagsLargeRegression(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 50))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 2000, 50))
	c := onlyChange(t, Diff(base, head), ireExpander64)
	// The four means and every quantile of their distributions doubled;
	// the spread and the success count did not move.
	var want []string
	for _, m := range []string{"bits", "charged", "messages", "rounds"} {
		want = append(want, m)
		for _, q := range []string{"max", "min", "p50", "p90", "p99"} {
			want = append(want, m+"_dist."+q)
		}
	}
	var got []string
	for _, f := range c.Fields {
		got = append(got, f.Path)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("changed paths %v, want %v", got, want)
	}
	if !slices.Contains(c.Fields, FieldDiff{Path: "messages", Base: "1000", Head: "2000"}) {
		t.Fatalf("messages not 1000 → 2000: %+v", c.Fields)
	}
}

// TestDiffAnyChangeIsChanged pins the gate's rule: a sweep is a pure
// function of its plan and seed, so a cell that moved at all is changed —
// a 1 % effect deep inside the trial spread, and a quantile or profile
// field alike. A changed cell names every field that moved, with both
// values, in the JSON report and in the markdown.
func TestDiffAnyChangeIsChanged(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1000, 400))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1010, 400))
	if c := onlyChange(t, Diff(base, head), ireExpander64); !slices.Contains(c.Fields, FieldDiff{Path: "messages", Base: "1000", Head: "1010"}) {
		t.Fatalf("1%% effect inside the noise not named: %+v", c.Fields)
	}
	head = artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1000, 400))
	head.Cells[0].MessagesDist.P90++
	head.Cells[0].Conductance = 0.5
	r := Diff(base, head)
	if len(r.Changed) != 1 {
		t.Fatalf("a change outside the means not changed: %+v", r)
	}
	// bench/ sums the deprecated counts to check its self-diff; Regressed
	// counts the changed cells, so that sum is non-zero exactly when the
	// report is not clean.
	if r.Regressed != len(r.Changed) {
		t.Fatalf("deprecated Regressed %d, want len(Changed) = %d", r.Regressed, len(r.Changed))
	}
	want := []FieldDiff{{Path: "messages_dist.p90", Base: "1400", Head: "1401"}, {Path: "phi", Base: "0", Head: "0.5"}}
	if got := r.Changed[0].Fields; !reflect.DeepEqual(got, want) {
		t.Fatalf("changed fields %+v, want %+v", got, want)
	}
	md := r.Markdown()
	for _, line := range []string{"  - messages_dist.p90: 1400 → 1401\n", "  - phi: 0 → 0.5\n"} {
		if !strings.Contains(md, line) {
			t.Fatalf("markdown does not name %q:\n%s", line, md)
		}
	}
}

// TestLeavesNamesEveryLeafByPath: nested objects and array elements get
// dotted paths, and each leaf keeps its JSON text.
func TestLeavesNamesEveryLeafByPath(t *testing.T) {
	got := leaves([]byte(`{"a":1.50,"l":[2,"x"],"s":{"t":true,"u":{"v":null}}}`))
	want := map[string]string{"a": "1.50", "l.0": "2", "l.1": `"x"`, "s.t": "true", "s.u.v": "null"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("leaves %v, want %v", got, want)
	}
}

// TestDiffSuccessRateWilson: the success count compares exactly. One lost
// trial of ten is a change although the two Wilson intervals overlap, and
// so is a gained one.
func TestDiffSuccessRateWilson(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 100, 1))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 9, 100, 1))
	for _, tc := range []struct {
		base, head harness.Artifact
		want       FieldDiff
	}{
		{base, head, FieldDiff{Path: "successes", Base: "10", Head: "9"}},
		{head, base, FieldDiff{Path: "successes", Base: "9", Head: "10"}},
	} {
		c := onlyChange(t, Diff(tc.base, tc.head), ireExpander64)
		if !reflect.DeepEqual(c.Fields, []FieldDiff{tc.want}) {
			t.Fatalf("changed fields %+v, want %+v", c.Fields, tc.want)
		}
	}
}

// TestDiffSuccessCollapseAtGateTrialCounts: at every trial count the
// quick sweeps actually use (6 for revocable, 8 for table1), a total
// success collapse k/k -> 0/k is a changed cell whose one changed field
// is its success count.
func TestDiffSuccessCollapseAtGateTrialCounts(t *testing.T) {
	key := harness.CellKey{Protocol: "revocable", Family: "complete", N: 6}
	for _, trials := range []int{6, 8} {
		base := artifact(harness.ArtifactSchema, cell("revocable", "complete", 6, trials, trials, 100, 1))
		head := artifact(harness.ArtifactSchema, cell("revocable", "complete", 6, trials, 0, 100, 1))
		c := onlyChange(t, Diff(base, head), key)
		want := []FieldDiff{{Path: "successes", Base: strconv.Itoa(trials), Head: "0"}}
		if !reflect.DeepEqual(c.Fields, want) {
			t.Fatalf("total collapse at %d trials: changed fields %+v, want %+v", trials, c.Fields, want)
		}
	}
}

// TestDiffCellAlignment covers added/removed cells and key identity
// including presumed_n.
func TestDiffCellAlignment(t *testing.T) {
	removed := cell("flood", "complete", 32, 5, 5, 400, 1)
	kept := cell("ire", "expander", 64, 5, 5, 1000, 1)
	added := cell("ire", "cycle", 16, 5, 5, 50, 1)
	presumed := cell("ire", "expander", 64, 5, 5, 900, 1)
	presumed.PresumedN = 128 // distinct key from kept despite same (proto, family, n)

	if k := presumed.Key(); k == kept.Key() || k.PresumedN != 128 {
		t.Fatalf("presumed key lost presumed_n: %s", k)
	}

	// Head lists presumed before kept: were presumed_n not in the key,
	// occurrence pairing would pair base's kept with head's presumed.
	base := artifact(harness.ArtifactSchema, kept, removed, presumed)
	head := artifact(harness.ArtifactSchema, presumed, added, kept)
	r := Diff(base, head)
	if r.Aligned != 2 {
		t.Fatalf("aligned cells %d, want 2", r.Aligned)
	}
	if len(r.Removed) != 1 || r.Removed[0] != (harness.CellKey{Protocol: "flood", Family: "complete", N: 32}) {
		t.Fatalf("removed %+v", r.Removed)
	}
	if len(r.Added) != 1 || r.Added[0] != (harness.CellKey{Protocol: "ire", Family: "cycle", N: 16}) {
		t.Fatalf("added %+v", r.Added)
	}
	if len(r.Changed) != 0 {
		t.Fatalf("presumed cell misaligned: %+v", r.Changed)
	}
}

func TestDiffDuplicateKeysPairByOccurrence(t *testing.T) {
	a := cell("ire", "cycle", 16, 5, 5, 100, 1)
	b := cell("ire", "cycle", 16, 5, 5, 200, 1)
	base := artifact(harness.ArtifactSchema, a, b)
	head := artifact(harness.ArtifactSchema, a, b, b)
	r := Diff(base, head)
	if r.Aligned != 2 || len(r.Changed) != 0 {
		t.Fatalf("duplicate keys misaligned: %+v", r)
	}
	if len(r.Added) != 1 {
		t.Fatalf("extra duplicate not reported added: %+v", r.Added)
	}
}

func TestMarkdownRendersChanges(t *testing.T) {
	base := artifact(harness.ArtifactSchema,
		cell("ire", "expander", 64, 10, 10, 1000, 1),
		cell("flood", "complete", 32, 10, 10, 400, 1))
	headCells := []harness.Cell{
		cell("ire", "expander", 64, 10, 10, 2000, 1),
		cell("flood", "complete", 32, 10, 10, 200, 1),
	}
	head := artifact(harness.ArtifactSchema, headCells...)
	md := Diff(base, head).Markdown()
	for _, want := range []string{
		"## benchdiff", "**2 changed of 2 aligned cells** · 0 added · 0 removed",
		"**Changed cells** (some field differs from the base):\n- ire expander/64\n  - bits: 1000 → 2000\n",
		"- flood complete/32\n  - bits: 400 → 200\n", "  - messages: 400 → 200\n",
		"`make baseline` accepts an intended change.",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestMarkdownAllUnchanged(t *testing.T) {
	a := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 1))
	md := Diff(a, a).Markdown()
	if !strings.Contains(md, "**0 changed of 1 aligned cells**") || !strings.Contains(md, "Every aligned cell is identical.") {
		t.Fatalf("markdown missing all-clear:\n%s", md)
	}
}

func TestReportJSONRoundTrips(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 1))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 2000, 1))
	r := Diff(base, head)
	buf, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Aligned != 1 || !reflect.DeepEqual(back.Changed, r.Changed) || back.BaseSchema != harness.ArtifactSchema {
		t.Fatalf("report JSON does not round-trip:\n%s", buf)
	}
}

// TestDiffRealArtifactsSelf diffs a real orchestrated sweep against
// itself and against its own JSON round trip: the full pipeline (run ->
// artifact -> encode -> decode -> diff) must come back clean, including a
// cell with a round profile and an epoch-scenario cell.
func TestDiffRealArtifactsSelf(t *testing.T) {
	specs := []harness.CellSpec{
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "complete", N: 16},
			Opts: harness.TrialOpts{Trials: 3, Seed: 7}},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "cycle", N: 12},
			Opts: harness.TrialOpts{Trials: 3, Seed: 7, RoundProfile: true}},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "complete", N: 8},
			Opts: harness.TrialOpts{Trials: 3, Seed: 7, Epochs: &anonlead.Scenario{Epochs: 3}}},
	}
	o := harness.Orchestrator{Workers: 2}
	cells, err := o.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := harness.NewArtifact(o, specs, cells, 0)
	if a.Cells[1].RoundProf == nil || a.Cells[2].EpochStats == nil {
		t.Fatal("sweep lacks its round-profile or epoch-scenario cell")
	}
	buf, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := harness.ReadArtifact(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []harness.Artifact{a, back} {
		r := Diff(a, head)
		if !r.Clean() || r.Aligned != len(specs) {
			t.Fatalf("self-diff not clean: %+v", r)
		}
	}
}

// TestAdversaryKeyAlignment: cells identical except for the adversary
// descriptor are distinct sweep cells — a faulted cell never pairs with
// its fault-free sibling.
func TestAdversaryKeyAlignment(t *testing.T) {
	plain := cell("ire", "expander", 64, 5, 5, 100, 1)
	faulted := cell("ire", "expander", 64, 5, 3, 40, 1)
	faulted.Adversary = "loss=0.1"
	base := artifact(harness.ArtifactSchema, plain, faulted)

	// Head with the same two cells: both align by key, nothing added.
	r := Diff(base, base)
	if r.Aligned != 2 || !r.Clean() {
		t.Fatalf("v3 self-alignment wrong: %+v", r)
	}
	if k := faulted.Key(); k.Adversary != "loss=0.1" || !strings.Contains(k.String(), "[loss=0.1]") {
		t.Fatalf("faulted key lost its adversary: %s", k)
	}

	// Dropping the faulted cell from head reports it removed, not merged
	// into the fault-free cell.
	head := artifact(harness.ArtifactSchema, plain)
	r = Diff(base, head)
	if r.Aligned != 1 || len(r.Removed) != 1 || r.Removed[0].Adversary != "loss=0.1" {
		t.Fatalf("faulted cell not tracked separately: %+v", r)
	}

	// A base of descriptor-less cells aligns against the head's fault-free
	// cell only.
	v2 := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 5, 5, 100, 1))
	r = Diff(v2, base)
	if r.Aligned != 1 || len(r.Added) != 1 || r.Added[0].Adversary != "loss=0.1" {
		t.Fatalf("descriptor-less alignment wrong: %+v", r)
	}
}
