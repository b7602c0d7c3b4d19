package anonlead

import (
	"strings"
	"testing"

	"anonlead/internal/core"
)

// TestNetworkProfileModes pins the public accessor's regimes: a network's size
// picks its regime, exact at n = 256 and estimated from n = 257, and the
// deprecated mode argument changes nothing.
func TestNetworkProfileModes(t *testing.T) {
	for _, n := range []int{256, 257} {
		nw, err := NewNetwork("expander", n, 4)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := nw.Profile()
		if err != nil {
			t.Fatal(err)
		}
		if prof.Estimated != (n > 256) {
			t.Fatalf("n=%d: Estimated=%t", n, prof.Estimated)
		}
		if est := strings.Contains(prof.String(), "diameter>="); est != prof.Estimated {
			t.Fatalf("n=%d: String's lower-bound marker disagrees with Estimated=%t:\n%s", n, prof.Estimated, prof)
		}
		if shim, err := nw.Profile(ProfileAuto); err != nil || shim != prof {
			t.Fatalf("n=%d: Profile(ProfileAuto) = %+v, %v; want %+v", n, shim, err, prof)
		}
	}
}

// TestRunProfilesLazily pins when Run computes a profile: never when
// every profiled input the protocol needs was supplied, and exactly once,
// when it consumed profiled defaults.
func TestRunProfilesLazily(t *testing.T) {
	nw, err := NewNetwork("cycle", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(nil, ProtoFloodMax, WithSeed(2), WithProtoConfig(core.ProtoConfig{Diam: 12})); err != nil {
		t.Fatal(err)
	}
	if nw.prof != nil {
		t.Fatalf("explicit-diameter run computed a profile: %+v", nw.prof)
	}
	if _, err := nw.Run(nil, ProtoFloodMax, WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	if nw.prof == nil || nw.prof.Estimated {
		t.Fatalf("default floodmax run left profile %+v, want an exact one", nw.prof)
	}
}
