package harness

import (
	"context"
	"testing"

	"anonlead"
	"anonlead/internal/adversary"
	"anonlead/internal/spectral"
)

// TestHarnessTrialEqualsPublicRun pins the one trial path from the
// outside: a one-trial cell equals what a library user gets from
// anonlead.NewNetwork(family, n, seed).Run(protocol, WithSeed(TrialSeed))
// on a fresh network, with no profiled input supplied by either side but
// the i(G) every revocable cell runs on — the same graph, the same profile
// (estimate-regime sampling seed included), the same defaults, the same
// accounting.
func TestHarnessTrialEqualsPublicRun(t *testing.T) {
	const root = 9
	all := Protocols()
	noRevocable := all[:len(all)-1] // its schedules are simulable on tiny graphs only
	for _, tc := range []struct {
		w      Workload
		mode   spectral.Mode
		protos []Protocol
		adv    *adversary.Spec
	}{
		{Workload{"complete", 4}, spectral.ModeAuto, all, nil},
		{Workload{"gnp", 48}, spectral.ModeExact, noRevocable, nil},
		{Workload{"expander", 300}, spectral.ModeAuto, noRevocable, nil}, // auto resolves to estimate
		{Workload{"expander", 64}, spectral.ModeEstimate, noRevocable, &adversary.Spec{Loss: 0.1}},
	} {
		for _, p := range tc.protos {
			ResetProfileCache()
			cell, err := RunCell(p, tc.w, TrialOpts{Trials: 1, Seed: root, ProfileMode: tc.mode, Adversary: tc.adv})
			if err != nil {
				t.Fatalf("%s on %v: %v", p, tc.w, err)
			}

			nw, err := anonlead.NewNetwork(tc.w.Family, tc.w.N, root)
			if err != nil {
				t.Fatal(err)
			}
			opts := []anonlead.Option{
				anonlead.WithSeed(TrialSeed(root, tc.w, 0)),
				anonlead.WithProfileMode(tc.mode),
			}
			if tc.adv != nil {
				opts = append(opts, anonlead.WithAdversary(*tc.adv))
			}
			if p == ProtoRevocable {
				opts = append(opts, anonlead.WithIsoperimetric(cell.Profile.Isoperimetric))
			}
			out, err := nw.Run(context.Background(), string(p), opts...)
			if err != nil {
				t.Fatalf("%s on %v: public run: %v", p, tc.w, err)
			}

			success := 0
			if out.Unique && out.AllKnow {
				success = 1
			}
			multi, zero := 0, 0
			if len(out.Leaders) > 1 {
				multi = 1
			}
			if len(out.Leaders) == 0 {
				zero = 1
			}
			if cell.Trials != 1 || cell.Successes != success || cell.MultiLeaders != multi || cell.ZeroLeaders != zero ||
				cell.Messages != float64(out.Messages) || cell.Bits != float64(out.Bits) ||
				cell.Rounds != float64(out.Rounds) || cell.Charged != float64(out.ChargedRounds) ||
				cell.Dropped != float64(out.Dropped) || cell.CrashedNodes != float64(out.Crashed) {
				t.Errorf("%s on %v: harness cell diverged from the public run:\ncell %+v\nrun  %+v leaders %v",
					p, tc.w, cell, out.Metrics, out.Leaders)
			}
			prof, err := nw.Profile(tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if *cell.Profile != prof {
				t.Errorf("%s on %v: profiles diverged:\ncell %+v\nnet  %+v", p, tc.w, cell.Profile, prof)
			}
			if tc.adv != nil && out.Dropped == 0 {
				t.Errorf("%s on %v: loss adversary dropped nothing", p, tc.w)
			}
		}
	}
	ResetProfileCache()
}
