package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"anonlead"
)

// TestListEqualsBenchmarkJSON keeps the benchmark's own list and
// BENCHMARK.json equal, and both within the contract's limits.
func TestListEqualsBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %v\n list %v", doc.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndSpecs) {
		t.Errorf("end-to-end metrics differ:\n json %v\n list %v", doc.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerSpecs) {
		t.Errorf("per-layer metrics differ:\n json %v\n list %v", doc.PerLayer, perLayerSpecs)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}

	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("listed workload cannot be built: %v", err)
		}
	}
	setup := false
	for _, m := range endToEndSpecs {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want within (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m == metricSpec{"setup_s", "s", lower, m.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayerSpecs {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

func TestUnknownWorkloadIsNamedError(t *testing.T) {
	if _, err := newWorkload("no-such-workload"); !errors.Is(err, errUnknownWorkload) {
		t.Fatalf("err = %v, want errUnknownWorkload", err)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		label string
	}{{20, ""}, {99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}} {
		label, _, ok := tailPercentile(sample(tc.n))
		if ok != (tc.label != "") || label != tc.label {
			t.Errorf("n=%d: got %q ok=%v, want %q", tc.n, label, ok, tc.label)
		}
	}
	if got := median(sample(5)); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestElectionSeedsArePureFunctionOfSeed(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := warmUpIndex; i < 100; i++ {
		s := electionSeed("w", 7, i)
		if s != electionSeed("w", 7, i) {
			t.Fatalf("election %d: seed is not reproducible", i)
		}
		if seen[s] {
			t.Fatalf("election %d: seed repeats an earlier one", i)
		}
		seen[s] = true
	}
	if electionSeed("w", 7, 0) == electionSeed("w", 8, 0) || electionSeed("w", 7, 0) == electionSeed("v", 7, 0) {
		t.Error("seed ignores the run seed or the workload")
	}
	// Only a workload with a fixed pool draws its elections from elsewhere.
	drawn, pooled := &cellWorkload{}, &cellWorkload{pool: true}
	if drawn.electionsSeed(7) != 7 || pooled.electionsSeed(7) != poolSeed || pooled.electionsSeed(8) != poolSeed {
		t.Error("electionsSeed: want the run seed, or poolSeed for a pooled workload")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	r := newRecorder()
	parent := r.begin("run", 3)
	r.spans[parent].start = 0
	nested := r.begin("poll", 3)
	r.end(nested)
	r.spans[nested].start, r.spans[nested].end = 10*time.Millisecond, 15*time.Millisecond
	r.end(parent)
	r.spans[parent].end = 100 * time.Millisecond
	r.child("step", parent, 60*time.Millisecond)
	r.add("grandchild", nested, 11*time.Millisecond, 12*time.Millisecond)

	if got := r.selfOf(parent); got != 35*time.Millisecond {
		t.Errorf("self(run) = %v, want 35ms (100 - 5 - 60; the grandchild is not its child)", got)
	}
	if got := r.selfOf(nested); got != 4*time.Millisecond {
		t.Errorf("self(poll) = %v, want 4ms", got)
	}
	for _, s := range r.spans {
		if s.election != 3 {
			t.Errorf("span %s: election %d, want 3", s.name, s.election)
		}
	}
	if r.spans[2].parent != parent || r.spans[2].start != 0 {
		t.Errorf("child span = %+v, want it to start with its parent", r.spans[2])
	}
}

// TestSmoke runs both passes on a tiny cell under all three schedulers: the
// model digest depends on none of them, nor on tracing.
func TestSmoke(t *testing.T) {
	const elections = 3
	var want uint64
	for i, s := range []anonlead.Scheduler{anonlead.Sequential, anonlead.WorkerPool, anonlead.Actors} {
		w := &cellWorkload{name: "smoke", cell: cell{"cycle", 16, anonlead.ProtoIRE, anonlead.TransportSim},
			elections: elections, opts: []anonlead.Option{anonlead.WithScheduler(s)}}
		if err := w.setUp(5); err != nil {
			t.Fatal(err)
		}
		var digest uint64
		for e := 0; e < elections; e++ {
			u, err := w.run(e)
			if err != nil || u.failed != 0 {
				t.Fatalf("%v election %d: err=%v failed=%d", s, e, err, u.failed)
			}
			if u.messages == 0 || u.rounds == 0 || u.wall() <= 0 || u.elections() != 1 {
				t.Fatalf("%v election %d measured nothing: %+v", s, e, u)
			}
			digest = foldDigest(digest, u.digest)
		}
		if i == 0 {
			want = digest
		} else if digest != want {
			t.Errorf("%v: digest %x, sequential %x", s, digest, want)
		}
	}

	w := &cellWorkload{name: "smoke", cell: cell{"cycle", 16, anonlead.ProtoIRE, anonlead.TransportSim}, elections: elections}
	rec := newRecorder()
	res, err := w.traced(rec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Errorf("traced pass: %d of %d elections failed", res.failed, res.attempted)
	}
	if res.digest != want {
		t.Errorf("traced digest %x, untraced %x", res.digest, want)
	}
	if _, err := newResult(perLayerSpecs, res.metrics, res.attempted, res.failed); err != nil {
		t.Error(err)
	}
	if res.metrics["core.step_share"] <= 0 || res.metrics["sim.self_share"] <= 0 ||
		res.metrics["core.step_share"]+res.metrics["sim.self_share"] > 1 {
		t.Errorf("shares: core.step %v, sim.self %v", res.metrics["core.step_share"], res.metrics["sim.self_share"])
	}
	path := t.TempDir() + "/smoke.trace.json"
	if err := rec.writeChrome(path, map[string]string{"workload": "smoke"}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil || len(doc.TraceEvents) != len(rec.spans)+1 {
		t.Errorf("trace file: err=%v, %d events for %d spans", err, len(doc.TraceEvents), len(rec.spans))
	}
}
