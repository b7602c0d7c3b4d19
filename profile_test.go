package anonlead

import (
	"strings"
	"testing"

	"anonlead/internal/core"
)

// TestNetworkProfileModes pins the public accessor: exact and estimate
// regimes are both reachable, cached per regime, and auto resolves to
// exact on a small network.
func TestNetworkProfileModes(t *testing.T) {
	nw, err := NewNetwork("expander", 96, 4)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := nw.Profile(ProfileExact)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Estimated || exact.Mode() != ProfileExact {
		t.Fatalf("exact profile flagged estimated: %+v", exact)
	}
	auto, err := nw.Profile(ProfileAuto)
	if err != nil {
		t.Fatal(err)
	}
	if auto != exact {
		t.Fatalf("auto at n=96 diverged from exact:\n%+v\n%+v", auto, exact)
	}
	est, err := nw.Profile(ProfileEstimate)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Estimated || est.Mode() != ProfileEstimate {
		t.Fatalf("estimate profile not flagged: %+v", est)
	}
	if est.Diameter > exact.Diameter {
		t.Fatalf("estimated diameter %d exceeds exact %d (must be a lower bound)", est.Diameter, exact.Diameter)
	}
	if !strings.Contains(est.String(), "diameter>=") {
		t.Fatalf("estimated profile String lacks lower-bound marker:\n%s", est.String())
	}
}

// TestRunProfilesLazily pins when Run computes a profile: never when
// every profiled input the protocol needs was supplied, and exactly once,
// under the resolved regime, when it consumed profiled defaults.
func TestRunProfilesLazily(t *testing.T) {
	nw, err := NewNetwork("cycle", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(nil, ProtoFloodMax, WithSeed(2), WithProtoConfig(core.ProtoConfig{Diam: 12})); err != nil {
		t.Fatal(err)
	}
	if len(nw.profs) != 0 {
		t.Fatalf("explicit-diameter run computed a profile: %v", nw.profs)
	}
	if _, err := nw.Run(nil, ProtoFloodMax, WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	p, ok := nw.profs[ProfileExact]
	if len(nw.profs) != 1 || !ok || p.Estimated {
		t.Fatalf("default floodmax run left profiles %v, want one exact profile", nw.profs)
	}
}

// TestParseProfileModeRoundTrips pins the canonical public mode strings.
func TestParseProfileModeRoundTrips(t *testing.T) {
	for _, m := range []ProfileMode{ProfileAuto, ProfileExact, ProfileEstimate} {
		got, err := ParseProfileMode(m.String())
		if err != nil || got != m {
			t.Fatalf("mode %v: parse(%q) = %v, %v", m, m.String(), got, err)
		}
	}
	if _, err := ParseProfileMode("dense"); err == nil {
		t.Fatal("invalid mode accepted")
	}
}
