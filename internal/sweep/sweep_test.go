package sweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"anonlead/internal/harness"
)

// testPlan is a small cross-protocol plan, cheap enough to run many times
// per test yet spanning families and fault-free/presumed-n identity.
func testPlan(seed uint64) harness.Plan {
	opts := harness.TrialOpts{Trials: 3, Seed: seed}
	specs := []harness.CellSpec{
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "expander", N: 32}, Opts: opts},
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "cycle", N: 16}, Opts: opts},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "complete", N: 16}, Opts: opts},
		{Protocol: harness.ProtoWalkNotify, Workload: harness.Workload{Family: "torus", N: 16}, Opts: opts},
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "diam2", N: 17},
			Opts: harness.TrialOpts{Trials: 3, Seed: seed, PresumedN: 34}},
	}
	return harness.Plan{Sections: []harness.PlanSection{{Specs: specs}}}
}

// engine is the one-worker orchestrator both the reference sweep and the
// fake workers run on (so their artifact headers agree).
var engine = harness.Orchestrator{Workers: 1}

// referenceJSON is the single-process artifact of the plan: what a
// distributed run must reproduce byte for byte.
func referenceJSON(t *testing.T, plan harness.Plan) []byte {
	t.Helper()
	specs := plan.Specs()
	cells, err := engine.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := harness.NewArtifact(engine, specs, cells, 0).StripTimings().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// newFake builds a coordinator whose workers are an in-process stand-in for
// the `lebench -cells` subprocess: the selected specs on one worker, with
// the partial's plan header. (The real subprocess path is covered by
// cmd/lebench's process-level test.)
func newFake(cfg Config, plan harness.Plan) *Coordinator {
	c := New(cfg, plan)
	all := plan.Specs()
	c.runWorker = func(_ context.Context, w workerTask) (harness.Artifact, error) {
		specs := make([]harness.CellSpec, len(w.indices))
		for j, idx := range w.indices {
			specs[j] = all[idx]
		}
		cells, err := engine.RunSweep(specs)
		if err != nil {
			return harness.Artifact{}, err
		}
		art := harness.NewArtifact(engine, specs, cells, 0)
		art.Plan = &harness.ArtifactPlan{Total: len(all), Indices: w.indices}
		return art, nil
	}
	return c
}

// TestDistributedByteIdentity is the headline contract of the distributed
// sweep: sharding the plan across workers and merging the partials yields
// an artifact byte-identical to the single-process sweep of the same
// seed, for every worker count.
func TestDistributedByteIdentity(t *testing.T) {
	plan := testPlan(17)
	want := referenceJSON(t, plan)

	for _, workers := range []int{1, 2, 3, plan.Len(), plan.Len() + 5} {
		c := newFake(Config{Workers: workers, Seed: 17}, plan)
		art, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := art.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: merged artifact differs from single-process reference:\n%s\nvs\n%s",
				workers, got, want)
		}
	}
}

// TestCoordinatorRetriesCrashedWorker checks the retry path: a worker that
// crashes on its first attempt is rerun, and the retried run's identical
// cells merge cleanly into a byte-identical artifact.
func TestCoordinatorRetriesCrashedWorker(t *testing.T) {
	plan := testPlan(23)
	want := referenceJSON(t, plan)

	var log bytes.Buffer
	c := newFake(Config{Workers: 2, Seed: 23, Log: &log}, plan)
	inner := c.runWorker
	var mu sync.Mutex
	crashed := false
	c.runWorker = func(ctx context.Context, w workerTask) (harness.Artifact, error) {
		mu.Lock()
		first := !crashed && w.id == 1
		if first {
			crashed = true
		}
		mu.Unlock()
		if first {
			return harness.Artifact{}, fmt.Errorf("injected crash")
		}
		return inner(ctx, w)
	}

	art, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := art.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact after a retried worker differs from reference")
	}
	if !strings.Contains(log.String(), "retry 1/1") {
		t.Fatalf("retry not logged:\n%s", log.String())
	}
}

// TestCoordinatorFailsAfterRetries checks a persistently crashing worker
// fails the sweep with an error naming the worker and its cells, while
// healthy workers still run to completion (no deadlock, no panic).
func TestCoordinatorFailsAfterRetries(t *testing.T) {
	plan := testPlan(29)
	c := newFake(Config{Workers: 2, Seed: 29}, plan)
	inner := c.runWorker
	c.runWorker = func(ctx context.Context, w workerTask) (harness.Artifact, error) {
		if w.id == 0 {
			return harness.Artifact{}, fmt.Errorf("injected crash")
		}
		return inner(ctx, w)
	}
	_, err := c.Run(context.Background())
	if err == nil {
		t.Fatal("persistently crashing worker did not fail the sweep")
	}
	if !strings.Contains(err.Error(), "worker 0") || !strings.Contains(err.Error(), "2 attempt(s)") {
		t.Fatalf("error does not describe the failure: %v", err)
	}
}

// TestCoordinatorContextCancel checks a canceled context stops retrying.
func TestCoordinatorContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := newFake(Config{Workers: 2, Seed: 3}, testPlan(3))
	if _, err := c.Run(ctx); err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("canceled run returned %v", err)
	}
}

// TestCoordinatorEmptyPlan checks the degenerate input fails loudly.
func TestCoordinatorEmptyPlan(t *testing.T) {
	c := New(Config{Workers: 2}, harness.Plan{})
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("empty plan accepted")
	}
}

// TestForSweepsPlanMatchesHarness pins that the production coordinator
// plans exactly the canonical matrix (the quick matrix here — what `make
// sweep-dist` shards).
func TestForSweepsPlanMatchesHarness(t *testing.T) {
	cfg := Config{Workers: 2, Quick: true, Seed: 1}
	c := ForSweeps(cfg)
	if got, want := c.plan.Len(), harness.SweepsPlan(true, 0, 1).Len(); got != want {
		t.Fatalf("coordinator plans %d cells, harness plans %d", got, want)
	}
}
