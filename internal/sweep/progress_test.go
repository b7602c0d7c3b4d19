package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"anonlead/internal/harness"
	"anonlead/internal/obs"
)

func TestProgressTracksWorkersAndCells(t *testing.T) {
	plan := testPlan(23)
	var log bytes.Buffer
	c := newFake(Config{Workers: 2, Seed: 23, Log: &log}, plan)

	if p := c.Progress(); p.PlanCells != 0 || len(p.Workers) != 0 {
		t.Fatalf("pre-run progress not zero: %+v", p)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	p := c.Progress()
	if p.PlanCells != plan.Len() || p.CellsDone != plan.Len() {
		t.Fatalf("cells %d/%d, want %d/%d", p.CellsDone, p.PlanCells, plan.Len(), plan.Len())
	}
	if p.WorkersDone != 2 || len(p.Workers) != 2 {
		t.Fatalf("workers done %d of %d tracked, want 2 of 2", p.WorkersDone, len(p.Workers))
	}
	assigned := 0
	for i, w := range p.Workers {
		if w.State != "done" || w.DoneCells != w.Cells {
			t.Fatalf("worker %d: %+v", i, w)
		}
		assigned += w.Cells
	}
	if assigned != plan.Len() {
		t.Fatalf("workers assigned %d cells, plan has %d", assigned, plan.Len())
	}

	// The snapshot is the debug endpoint's payload: it must be JSON-clean.
	if _, err := json.Marshal(p); err != nil {
		t.Fatalf("progress not JSON-marshalable: %v", err)
	}

	// Progress lines now carry sweep totals and an ETA.
	if !strings.Contains(log.String(), fmt.Sprintf("sweep %d/%d cells", plan.Len(), plan.Len())) {
		t.Fatalf("final progress line lacks sweep totals:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "ETA") {
		t.Fatalf("progress lines lack an ETA:\n%s", log.String())
	}
}

func TestProgressCountsRetriesAndFailures(t *testing.T) {
	plan := testPlan(29)
	c := newFake(Config{Workers: 2, Seed: 29}, plan)
	attempts := 0
	inner := c.runWorker
	c.runWorker = func(ctx context.Context, w workerTask) (harness.Artifact, error) {
		if w.id == 1 {
			attempts++
			if attempts == 1 {
				return harness.Artifact{}, fmt.Errorf("injected crash")
			}
		}
		return inner(ctx, w)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	p := c.Progress()
	if p.Retries != 1 {
		t.Fatalf("retries = %d, want 1", p.Retries)
	}
	if p.Workers[1].State != "done" || p.Workers[1].Retries != 1 {
		t.Fatalf("retried worker state: %+v", p.Workers[1])
	}
}

func TestProgressPublishesRegistryGauges(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Default().Reset()
		obs.ResetSpans()
	})
	plan := testPlan(31)
	c := newFake(Config{Workers: 2, Seed: 31}, plan)
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Gauge("anonlead_sweep_cells_done").Value(); got != float64(plan.Len()) {
		t.Fatalf("anonlead_sweep_cells_done = %v, want %d", got, plan.Len())
	}
	// The coordinator's phases landed as spans: worker spans plus the merge
	// (the cell phases are recorded in the worker processes).
	phases := make(map[string]bool)
	for _, ev := range obs.SpanEvents() {
		phases[ev.Phase] = true
	}
	for _, want := range []string{"worker", "merge"} {
		if !phases[want] {
			t.Errorf("no %q span recorded; got %v", want, phases)
		}
	}
}
