package anonlead

import (
	"context"
	"testing"

	"anonlead/internal/stats"
)

// TestConformanceWHP asserts the paper's "with high probability" on the
// public path: on a 256-node expander, each protocol elects exactly one
// leader in enough of 16 fixed trial seeds that the Wilson lower bound on
// its unique-leader rate is at least 0.7. That bound admits at most one
// failure in 16.
func TestConformanceWHP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 64 elections on expander-256")
	}
	nw, err := NewNetwork("expander", 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	const first, trials = 100, 16
	for _, proto := range []string{ProtoIRE, ProtoExplicit, ProtoWalkNotify, ProtoFloodMax} {
		unique := 0
		for s := uint64(first); s < first+trials; s++ {
			out, err := nw.Run(context.Background(), proto, WithSeed(s))
			if err != nil {
				t.Fatalf("%s seed %d: %v", proto, s, err)
			}
			if out.Unique {
				unique++
			}
		}
		t.Logf("%s: %d/%d unique leaders", proto, unique, trials)
		if lo, _ := stats.Wilson(unique, trials); lo < 0.7 {
			t.Errorf("%s: %d/%d unique leaders, Wilson lower bound %.3f < 0.7", proto, unique, trials, lo)
		}
	}
}
