// The paper's claims as tests on the public path. This is an external test
// package (anonlead_test) so the revocable band can take its trial seeds
// from the experiment harness, which itself runs on the public API.
package anonlead_test

import (
	"context"
	"reflect"
	"testing"

	"anonlead"
	"anonlead/internal/harness"
	"anonlead/internal/stats"
)

// TestConformanceWHP asserts the paper's "with high probability" on the
// public path: on each fault-free family of the gate sweep, at its largest
// gate size and graph seed 1, every protocol the gate runs there elects
// exactly one leader in enough of 16 fixed trial seeds that the Wilson
// lower bound on its unique-leader rate is at least 0.7. That bound admits
// at most one failure in 16.
func TestConformanceWHP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 176 elections on the gate's largest fault-free cells")
	}
	const first, trials = 100, 16
	for _, cell := range []struct {
		family string
		n      int
		protos []string
	}{
		{"expander", 256, []string{anonlead.ProtoIRE, anonlead.ProtoExplicit, anonlead.ProtoWalkNotify, anonlead.ProtoFloodMax}},
		{"hypercube", 256, []string{anonlead.ProtoIRE}},
		{"cycle", 96, []string{anonlead.ProtoIRE, anonlead.ProtoWalkNotify}},
		{"complete", 128, []string{anonlead.ProtoIRE, anonlead.ProtoFloodMax}},
		{"diam2", 129, []string{anonlead.ProtoIRE, anonlead.ProtoFloodMax}},
	} {
		nw, err := anonlead.NewNetwork(cell.family, cell.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range cell.protos {
			unique := 0
			for s := uint64(first); s < first+trials; s++ {
				out, err := nw.Run(context.Background(), proto, anonlead.WithSeed(s))
				if err != nil {
					t.Fatalf("%s-%d %s seed %d: %v", cell.family, cell.n, proto, s, err)
				}
				if out.Unique {
					unique++
				}
			}
			t.Logf("%s-%d %s: %d/%d unique leaders", cell.family, cell.n, proto, unique, trials)
			if lo, _ := stats.Wilson(unique, trials); lo < 0.7 {
				t.Errorf("%s-%d %s: %d/%d unique leaders, Wilson lower bound %.3f < 0.7",
					cell.family, cell.n, proto, unique, trials, lo)
			}
		}
	}
}

// TestConformanceRevocable asserts Theorem 3's Revocable LE without
// knowledge of n: on complete graphs of 3, 4 and 6 nodes, told only the
// profiled isoperimetric number, every one of the six trial seeds of the
// gate's T1-d cells stabilizes on exactly one leader holding the agreed
// certificate. The protocol estimates n itself, so at n = 4 a presumed
// size of 40 leaves each outcome unchanged.
func TestConformanceRevocable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 revocable elections, about 4 s")
	}
	for _, n := range []int{3, 4, 6} {
		nw, err := anonlead.NewNetwork("complete", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := nw.Profile(anonlead.ProfileAuto)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			seed := harness.TrialSeed(1, harness.Workload{Family: "complete", N: n}, trial)
			opts := []anonlead.Option{anonlead.WithSeed(seed), anonlead.WithIsoperimetric(prof.Isoperimetric)}
			out, err := nw.Run(context.Background(), anonlead.ProtoRevocable, opts...)
			if err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
			if !out.Unique || out.Certificate == nil || out.Certificate.ID != out.LeaderID {
				t.Errorf("n=%d trial %d: unique %t, leaders %v, certificate %+v, leader ID %d",
					n, trial, out.Unique, out.Leaders, out.Certificate, out.LeaderID)
			}
			if n != 4 {
				continue
			}
			told, err := nw.Run(context.Background(), anonlead.ProtoRevocable, append(opts, anonlead.WithPresumedN(40))...)
			if err != nil {
				t.Fatalf("n=4 trial %d presumed 40: %v", trial, err)
			}
			if !reflect.DeepEqual(told, out) {
				t.Errorf("n=4 trial %d: presumed n=40 changed the outcome:\n%+v\nwant\n%+v", trial, told, out)
			}
		}
	}
}

// TestConformanceImpossibility asserts Theorem 2, that irrevocable
// election needs n, on the pumping wheel of Figures 1-2: IRE, told it runs
// on a 12-node cycle, runs on wheels with 1, 2 and 4 planted witnesses of
// that cycle (8 trials each, seed 1, the -quick series of lebench -exp
// figures). At every point the Wilson lower bound of the multi-leader
// rate exceeds ½; the rate never falls as witnesses are added, and the
// mean leader count rises strictly.
func TestConformanceImpossibility(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 elections on pumping wheels, about 6 s")
	}
	const trials = 8
	points, err := harness.SplitBrainExperiment(12, []int{1, 2, 4}, trials, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		lo, _ := stats.Wilson(pt.MultiLeader, trials)
		t.Logf("%d witnesses: %d/%d multi-leader (Wilson lower bound %.3f), mean leaders %.2f",
			pt.Layout.Witnesses, pt.MultiLeader, trials, lo, pt.MeanLeaders)
		if lo <= 0.5 {
			t.Errorf("%d witnesses: %d/%d multi-leader, Wilson lower bound %.3f <= 0.5",
				pt.Layout.Witnesses, pt.MultiLeader, trials, lo)
		}
		if i == 0 {
			continue
		}
		prev := points[i-1]
		if pt.MultiLeader < prev.MultiLeader {
			t.Errorf("multi-leader rate fell from %d/%d to %d/%d as witnesses went %d -> %d",
				prev.MultiLeader, trials, pt.MultiLeader, trials, prev.Layout.Witnesses, pt.Layout.Witnesses)
		}
		if pt.MeanLeaders <= prev.MeanLeaders {
			t.Errorf("mean leaders %.2f -> %.2f as witnesses went %d -> %d, want a strict rise",
				prev.MeanLeaders, pt.MeanLeaders, prev.Layout.Witnesses, pt.Layout.Witnesses)
		}
	}
}
