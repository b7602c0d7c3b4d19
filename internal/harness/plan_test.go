package harness

import (
	"reflect"
	"testing"
)

// TestSweepsPlanDeterministic pins the planner contract the artifact
// layout rests on: the same (quick, trials, seed) parameters expand to the
// same spec list every time, and every section's specs land in the
// flattened list in section order.
func TestSweepsPlanDeterministic(t *testing.T) {
	a := SweepsPlan(true, 0, 1)
	b := SweepsPlan(true, 0, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SweepsPlan is not deterministic for equal parameters")
	}
	specs := a.Specs()
	if len(specs) == 0 {
		t.Fatal("empty plan")
	}
	// Flattening preserves section order: walking sections must replay the
	// flattened list exactly.
	i := 0
	for _, sec := range a.Sections {
		for _, sp := range sec.Specs {
			if !reflect.DeepEqual(specs[i], sp) {
				t.Fatalf("spec %d differs from its section copy", i)
			}
			i++
		}
	}
	if i != len(specs) {
		t.Fatalf("Specs() returned %d specs, the sections hold %d", len(specs), i)
	}
	// Different parameters plan different matrices.
	if full := SweepsPlan(false, 0, 1).Specs(); len(full) <= len(specs) {
		t.Fatalf("full plan (%d cells) not larger than quick (%d)", len(full), len(specs))
	}
	if reseeded := SweepsPlan(true, 0, 2); reflect.DeepEqual(reseeded.Specs(), specs) {
		t.Fatal("changing the root seed did not change the planned specs")
	}
}
