package harness

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// FuzzParseSelector hardens the -cells selector grammar: arbitrary input
// must parse or error (never panic), and anything accepted must satisfy
// the selector invariants — non-empty, strictly ascending half-open
// ranges, and a String() rendering the parser accepts back as the same
// selection.
func FuzzParseSelector(f *testing.F) {
	for _, s := range []string{
		"0", "0:5", "0:5,7,9:12", "3,4,5", " 1 : 3 ", "0:2,2:4",
		"", "5:2", "3:3", "-1", "a", "1,,2", "1:2:3", "2,1", "0x10", "1:9999999999999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sel, err := ParseCellSelector(s)
		if err != nil {
			return // rejected input: an error is the contract, a panic is the bug
		}
		if sel.IsZero() {
			t.Fatalf("parse of %q succeeded but selects nothing", s)
		}
		// The canonical text re-parses to a selector that renders the same
		// canonical text (String is a fixed point of Parse∘String).
		canon := sel.String()
		sel2, err := ParseCellSelector(canon)
		if err != nil {
			t.Fatalf("canonical render %q of %q does not re-parse: %v", canon, s, err)
		}
		if got := sel2.String(); got != canon {
			t.Fatalf("canonical render unstable: %q re-parses to %q", canon, got)
		}

		// Expansion invariants, on selectors small enough to expand: the
		// index list is strictly ascending and SelectorFromIndices selects
		// exactly the same cells (possibly in a merged canonical form, e.g.
		// "0:2,2:4" → "0:4").
		max := sel.ranges[len(sel.ranges)-1].hi
		if max > 1<<16 {
			return
		}
		idxs, err := sel.Indices(max)
		if err != nil {
			t.Fatalf("selector %q does not expand against its own bound %d: %v", canon, max, err)
		}
		for i := 1; i < len(idxs); i++ {
			if idxs[i] <= idxs[i-1] {
				t.Fatalf("selector %q expands out of order: %v", canon, idxs)
			}
		}
		rt, err := SelectorFromIndices(idxs)
		if err != nil {
			t.Fatalf("round-trip of %v failed: %v", idxs, err)
		}
		idxs2, err := rt.Indices(max)
		if err != nil {
			t.Fatalf("round-tripped selector %q does not expand: %v", rt, err)
		}
		if !reflect.DeepEqual(idxs, idxs2) {
			t.Fatalf("selection changed through SelectorFromIndices: %v vs %v", idxs, idxs2)
		}
	})
}

// TestSelectorRoundTripProperty: for random index sets, the canonical
// selector built from the indices renders text that parses back to
// exactly those indices. This is the contract the distributed sweep rests
// on — the sweep coordinator serializes shard selectors as text and workers re-expand
// them.
func TestSelectorRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		total := 1 + rng.Intn(64)
		want := map[int]bool{}
		for i := 0; i < 1+rng.Intn(total); i++ {
			want[rng.Intn(total)] = true
		}
		var indices []int // deliberately unsorted with duplicates
		for i := range want {
			indices = append(indices, i, i)
		}
		rng.Shuffle(len(indices), func(i, j int) { indices[i], indices[j] = indices[j], indices[i] })

		sel, err := SelectorFromIndices(indices)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		parsed, err := ParseCellSelector(sel.String())
		if err != nil {
			t.Fatalf("trial %d: canonical %q does not parse: %v", trial, sel, err)
		}
		got, err := parsed.Indices(total)
		if err != nil {
			t.Fatalf("trial %d: %q does not expand against %d: %v", trial, sel, total, err)
		}
		sorted := make([]int, 0, len(want))
		for i := range want {
			sorted = append(sorted, i)
		}
		sort.Ints(sorted)
		if !reflect.DeepEqual(got, sorted) {
			t.Fatalf("trial %d: %q expands to %v, want %v", trial, sel, got, sorted)
		}
	}
}
