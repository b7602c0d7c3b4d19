package anonlead

import (
	"context"
	"reflect"
	"testing"
)

// adaptiveSpec is the canonical adaptive configuration the public tests
// pin: one victim, a short observation window.
var adaptiveSpec = AdversarySpec{AdaptiveCrash: 1, AdaptiveWindow: 4}

func runAdaptive(t *testing.T, spec AdversarySpec) Outcome {
	t.Helper()
	nw := mustNetwork(t, "complete", 8, 3)
	all := []Option{WithSeed(11)}
	if !spec.IsZero() {
		all = append(all, WithAdversary(spec))
	}
	out, err := nw.Run(context.Background(), ProtoIRE, all...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

// TestAdaptiveAdversaryDeterministicPerSeed: adaptive fates are a pure
// function of the observed traffic, so the same seed reproduces the same
// outcome byte for byte.
func TestAdaptiveAdversaryDeterministicPerSeed(t *testing.T) {
	base := runAdaptive(t, adaptiveSpec)
	if base.Metrics.Crashed != 1 {
		t.Fatalf("adaptive adversary crashed %d nodes, want 1", base.Metrics.Crashed)
	}
	if again := runAdaptive(t, adaptiveSpec); !reflect.DeepEqual(again, base) {
		t.Fatal("adaptive run is not reproducible for a fixed seed")
	}
}

// TestAdaptiveAdversaryDivergesFromStaticFates: the adaptive run must be
// genuinely adaptive — different from the unperturbed baseline, and
// different from a static-fate adversary that kills a fixed node on the
// same timeline (node 0 at the window boundary). If the adaptive run ever
// collapsed into either, the traffic feed would be dead code.
func TestAdaptiveAdversaryDivergesFromStaticFates(t *testing.T) {
	adaptive := runAdaptive(t, adaptiveSpec)
	clean := runAdaptive(t, AdversarySpec{})
	if reflect.DeepEqual(adaptive.Metrics, clean.Metrics) {
		t.Fatal("adaptive run identical to the fault-free baseline")
	}
	static := runAdaptive(t, AdversarySpec{CrashSchedule: map[int]int{0: 5}})
	if static.Metrics.Crashed != 1 {
		t.Fatalf("static baseline crashed %d nodes, want 1", static.Metrics.Crashed)
	}
	if reflect.DeepEqual(adaptive.Metrics, static.Metrics) &&
		reflect.DeepEqual(adaptive.Leaders, static.Leaders) {
		t.Fatal("adaptive run identical to the static-schedule baseline; the traffic condition is dead")
	}
}

// TestAdaptiveDescriptorPublicMirror: the adaptive fields are reachable
// through the public name's Descriptor/Validate like every other primitive.
func TestAdaptiveDescriptorPublicMirror(t *testing.T) {
	spec := AdversarySpec{AdaptiveCrash: 2, AdaptiveWindow: 4, AdaptiveStrikes: 2}
	if got, want := spec.Descriptor(), "adaptive=2@4x2"; got != want {
		t.Fatalf("descriptor %q, want %q", got, want)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (AdversarySpec{AdaptiveStrikes: 1}).Validate(); err == nil {
		t.Fatal("strikes without adaptive_crash accepted")
	}
	if (AdversarySpec{AdaptiveCrash: 1}).IsZero() {
		t.Fatal("adaptive spec reported zero")
	}
}
