package anonlead

import (
	"strings"
	"testing"
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

// TestOutcomeProfileAttachment pins when Run attaches a profile: present
// when the protocol consumed profiled defaults, absent when every input
// was supplied explicitly.
func TestOutcomeProfileAttachment(t *testing.T) {
	nw, err := NewNetwork("cycle", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := nw.Run(nil, ProtoFloodMax, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Profile == nil {
		t.Fatal("floodmax with profiled diameter returned no Outcome.Profile")
	}
	if out.Profile.Estimated {
		t.Fatalf("small-n auto profile flagged estimated: %+v", out.Profile)
	}

	fresh, err := NewNetwork("cycle", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := fresh.Run(nil, ProtoFloodMax, WithSeed(2), WithDiameter(12))
	if err != nil {
		t.Fatal(err)
	}
	if out2.Profile != nil {
		t.Fatalf("explicit-diameter run forced a profile: %+v", out2.Profile)
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
