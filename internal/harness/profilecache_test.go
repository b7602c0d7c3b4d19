package harness

import (
	"bytes"
	"testing"
	"time"

	"anonlead/internal/spectral"
)

// TestProfileCacheColdWarmByteIdentical: a warm-cache sweep serializes
// byte-identically to the cold run that populated the cache, and a fresh
// cold run after a reset reproduces both — the cache changes cost, never
// content. Also pins the hit/miss accounting.
func TestProfileCacheColdWarmByteIdentical(t *testing.T) {
	ResetProfileCache()
	defer ResetProfileCache()

	// n=300 forces the estimate regime under auto; two protocols on one
	// workload share a single prepare, so one sweep is one cache lookup.
	opts := TrialOpts{Trials: 3, Seed: 7}
	specs := []CellSpec{
		{Protocol: ProtoFlood, Workload: Workload{Family: "expander", N: 300}, Opts: opts},
		{Protocol: ProtoWalkNotify, Workload: Workload{Family: "expander", N: 300}, Opts: opts},
	}
	o := Orchestrator{Workers: 1}

	cold, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := ProfileCacheStats()
	if misses != 1 || hits != 0 {
		t.Fatalf("cold sweep counters: hits=%d misses=%d, want 0/1 (one shared prepare)", hits, misses)
	}
	if !cold[0].Profile.Estimated {
		t.Fatalf("n=300 cell not in estimate regime under auto: %+v", cold[0].Profile)
	}

	warm, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = ProfileCacheStats()
	if misses != 1 || hits != 1 {
		t.Fatalf("warm sweep counters: hits=%d misses=%d, want 1/1", hits, misses)
	}

	ResetProfileCache()
	fresh, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}

	render := func(cells []Cell) []byte {
		buf, err := NewArtifact(o, specs, cells, 0).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	coldJSON := render(cold)
	if !bytes.Equal(coldJSON, render(warm)) {
		t.Fatal("warm-cache sweep diverged from cold run")
	}
	if !bytes.Equal(coldJSON, render(fresh)) {
		t.Fatal("post-reset cold sweep diverged from first cold run")
	}
}

// TestEstimateArtifactRecordsMode: estimate-regime cells carry the
// canonical mode string in the v4 artifact; exact ones omit it.
func TestEstimateArtifactRecordsMode(t *testing.T) {
	ResetProfileCache()
	defer ResetProfileCache()

	opts := TrialOpts{Trials: 2, Seed: 5}
	specs := []CellSpec{
		{Protocol: ProtoFlood, Workload: Workload{Family: "cycle", N: 24}, Opts: opts},
		{Protocol: ProtoFlood, Workload: Workload{Family: "expander", N: 300}, Opts: opts},
	}
	cells, err := Orchestrator{Workers: 1}.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArtifact(Orchestrator{Workers: 1}, specs, cells, 0)
	if a.Schema != ArtifactSchema {
		t.Fatalf("schema %q", a.Schema)
	}
	if got := a.Cells[0].ProfileMode; got != "" {
		t.Fatalf("exact cell recorded mode %q, want omitted", got)
	}
	if got := a.Cells[1].ProfileMode; got != spectral.ModeEstimate.String() {
		t.Fatalf("estimate cell recorded mode %q, want %q", got, spectral.ModeEstimate)
	}
}

// TestProfileCacheHitSpeedup: preparing the same cell twice must make the
// second preparation at least 10x cheaper — the acceptance bar for the
// scaling sweeps, where repeated cells reduce to trial cost. The cold
// preparation profiles a 4000-node expander (hundreds of milliseconds);
// the warm one reads the cached network's cached profile (microseconds), so
// the 10x bound has a wide margin even on a noisy CI machine.
func TestProfileCacheHitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ResetProfileCache()
	defer ResetProfileCache()

	w := Workload{Family: "expander", N: 4000}
	start := time.Now()
	_, prof, err := prepareCell(w, 3, spectral.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	coldT := time.Since(start)
	if !prof.Estimated {
		t.Fatalf("n=4000 resolved to exact regime: %+v", prof)
	}

	start = time.Now()
	_, prof2, err := prepareCell(w, 3, spectral.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	warmT := time.Since(start)
	if *prof2 != *prof {
		t.Fatal("warm prepare returned a different profile")
	}
	if warmT*10 > coldT {
		t.Fatalf("cache hit not >=10x faster: cold %v, warm %v", coldT, warmT)
	}
}
