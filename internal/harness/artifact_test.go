package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"anonlead"
	"anonlead/internal/adversary"
	"anonlead/internal/stats"
)

// TestCellJSONShape pins the artifact's cell schema to Cell's encoding:
// the keys a zero cell writes, in order, and every key a cell can write,
// omitempty ones included. Cell is both the sweep's in-memory result and
// the file's record, so a field added to it joins the schema; this test is
// where that shows.
func TestCellJSONShape(t *testing.T) {
	raw, err := json.Marshal(Cell{})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"protocol":"","family":"","n":0,"m":0,"diameter":0,"tmix":0,"phi":0,` +
		`"trials":0,"successes":0,"multi_leaders":0,"zero_leaders":0,` +
		`"messages":0,"bits":0,"rounds":0,"charged":0,"predicted_msgs":0,"predicted_time":0}`
	if string(raw) != want {
		t.Fatalf("Cell{} JSON\n%s\nwant\n%s", raw, want)
	}

	wantTags := []string{
		"protocol", "family", "n", "m", "diameter", "tmix", "phi",
		"presumed_n,omitempty", "adversary,omitempty", "scenario,omitempty",
		"trials", "successes", "multi_leaders", "zero_leaders",
		"messages", "bits", "rounds", "charged",
		"dropped,omitempty", "crashed_nodes,omitempty",
		"messages_dist,omitempty", "bits_dist,omitempty", "rounds_dist,omitempty", "charged_dist,omitempty",
		"round_profile,omitempty", "epochs,omitempty",
		"predicted_msgs", "predicted_time",
	}
	if got := jsonTags(reflect.TypeOf(Cell{})); !slices.Equal(got, wantTags) {
		t.Fatalf("Cell JSON keys\n%q\nwant\n%q", got, wantTags)
	}

	// A distribution's sample size and mean are the cell's trials and flat
	// mean; the distribution object carries only the spread.
	raw, err = json.Marshal(stats.Dist{N: 3, Mean: 2, StdDev: 1, Min: 1, Max: 3, P50: 2, P90: 3, P99: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"stddev":1,"min":1,"max":3,"p50":2,"p90":3,"p99":3}`; string(raw) != want {
		t.Fatalf("stats.Dist JSON %s, want %s", raw, want)
	}
}

// jsonTags lists the json tags of a struct's encoded fields in encoding
// order, descending into untagged embedded structs the way encoding/json
// flattens them. An untagged field reads as its Go name.
func jsonTags(typ reflect.Type) []string {
	var tags []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, ok := f.Tag.Lookup("json")
		switch {
		case tag == "-":
		case f.Anonymous && !ok && f.Type.Kind() == reflect.Struct:
			tags = append(tags, jsonTags(f.Type)...)
		case !ok:
			tags = append(tags, f.Name)
		default:
			tags = append(tags, tag)
		}
	}
	return tags
}

// TestArtifactFilesRoundTrip: reading a committed artifact and encoding it
// again gives back the file byte for byte, so the in-memory cell holds
// everything the file does.
func TestArtifactFilesRoundTrip(t *testing.T) {
	for _, p := range []string{
		filepath.Join("..", "..", "testdata", "BENCH_baseline.json"),
		filepath.Join("testdata", "bench_harness_golden.json"),
	} {
		want, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ReadArtifactFile(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s: re-encoding differs at line %d:\n got %s\nwant %s", p, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: re-encoding has %d lines, file %d", p, len(gl), len(wl))
		}
	}
}

// TestArtifactDecodesToTheSweepCells: a sweep's cells written to the
// artifact and read back are the cells the sweep returned, field for
// field, for every kind of cell the report sections (presumed size,
// adversary, round profile, epoch scenario).
func TestArtifactDecodesToTheSweepCells(t *testing.T) {
	opts := TrialOpts{Trials: 3, Seed: 5}
	withOpts := func(edit func(*TrialOpts)) TrialOpts {
		o := opts
		edit(&o)
		return o
	}
	specs := []CellSpec{
		{Protocol: ProtoIRE, Workload: Workload{Family: "complete", N: 16}, Opts: opts},
		{Protocol: ProtoIRE, Workload: Workload{Family: "complete", N: 16},
			Opts: withOpts(func(o *TrialOpts) { o.PresumedN = 8 })},
		{Protocol: ProtoFlood, Workload: Workload{Family: "expander", N: 32},
			Opts: withOpts(func(o *TrialOpts) { o.Adversary = &adversary.Spec{Loss: 0.1} })},
		{Protocol: ProtoFlood, Workload: Workload{Family: "cycle", N: 12},
			Opts: withOpts(func(o *TrialOpts) { o.RoundProfile = true })},
		{Protocol: ProtoFlood, Workload: Workload{Family: "complete", N: 8},
			Opts: withOpts(func(o *TrialOpts) { o.Epochs = &anonlead.Scenario{Epochs: 3} })},
	}
	cells, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := NewArtifact(Orchestrator{}, specs, cells, 0).JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !reflect.DeepEqual(back.Cells[i], cells[i]) {
			t.Errorf("cell %d read back as\n%+v\nwant\n%+v", i, back.Cells[i], cells[i])
		}
	}
	if c := back.Cells; c[1].PresumedN != 8 || c[2].Adversary != "loss=0.1" || c[3].RoundProf == nil || c[4].Scenario == "" {
		t.Fatalf("sweep lacks one of its kinds of cell: %+v", c)
	}
}
