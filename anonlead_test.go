package anonlead

import (
	"context"
	"testing"

	"anonlead/internal/core"
)

func TestNewNetworkFamilies(t *testing.T) {
	for _, family := range []string{"cycle", "path", "complete", "star", "grid", "torus", "hypercube", "tree",
		"barbell", "lollipop", "regular", "regular3", "regular6", "expander", "gnp", "diam2"} {
		nw, err := NewNetwork(family, 16, 1)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if nw.N() == 0 || nw.g.M() == 0 {
			t.Fatalf("%s: degenerate network", family)
		}
		prof := mustProfile(t, nw)
		if prof.MixingTime < 1 || prof.Conductance <= 0 || prof.Isoperimetric <= 0 {
			t.Fatalf("%s: degenerate profile %+v", family, prof)
		}
	}
}

func TestNewNetworkUnknownFamily(t *testing.T) {
	if _, err := NewNetwork("nosuch", 8, 1); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestNewNetworkFromEdges(t *testing.T) {
	nw, err := NewNetworkFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 4 || nw.g.M() != 4 {
		t.Fatalf("n=%d m=%d", nw.N(), nw.g.M())
	}
	if d := mustProfile(t, nw).Diameter; d != 2 {
		t.Fatalf("diameter %d", d)
	}
}

func TestNewNetworkFromEdgesRejectsDisconnected(t *testing.T) {
	if _, err := NewNetworkFromEdges(4, [][2]int{{0, 1}, {2, 3}}); err == nil {
		t.Fatal("disconnected edges accepted")
	}
}

// TestNewNetworkFromEdgesRejectsBadInput: a size or an edge the builder
// cannot take is an error naming it, not the builder's panic, and a
// self-loop is refused rather than dropped.
func TestNewNetworkFromEdgesRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		n     int
		edges [][2]int
		want  string
	}{
		{0, nil, "anonlead: network requires a non-empty graph, got n=0"},
		{-2, [][2]int{{0, 1}}, "anonlead: network requires a non-empty graph, got n=-2"},
		{3, [][2]int{{0, 1}, {1, 5}}, "anonlead: edge 1 (1,5) out of range [0,3)"},
		{3, [][2]int{{-1, 2}}, "anonlead: edge 0 (-1,2) out of range [0,3)"},
		{3, [][2]int{{0, 1}, {1, 2}, {2, 2}}, "anonlead: edge 2 is a self-loop at node 2"},
	} {
		nw, err := NewNetworkFromEdges(c.n, c.edges)
		if nw != nil || err == nil || err.Error() != c.want {
			t.Errorf("NewNetworkFromEdges(%d, %v) = %v, %v; want error %q", c.n, c.edges, nw, err, c.want)
		}
	}
	if _, err := NewNetworkFromEdges(3, [][2]int{{0, 1}, {1, 0}, {1, 2}}); err != nil {
		t.Fatalf("an edge listed in both orientations: %v", err)
	}
}

func TestElectUnique(t *testing.T) {
	nw, err := NewNetwork("complete", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	const trials = 10
	for s := uint64(0); s < trials; s++ {
		res, err := nw.Run(context.Background(), ProtoIRE, WithSeed(s))
		if err != nil {
			t.Fatal(err)
		}
		if res.Unique {
			wins++
			if len(res.Leaders) != 1 {
				t.Fatalf("Unique true but %d leaders", len(res.Leaders))
			}
		}
		if res.Messages <= 0 || res.Rounds <= 0 || res.ChargedRounds <= 0 || res.Bits <= 0 {
			t.Fatalf("degenerate cost accounting: %+v", res)
		}
	}
	if wins < 8 {
		t.Fatalf("unique rate %d/%d", wins, trials)
	}
}

func TestElectDeterministic(t *testing.T) {
	nw, err := NewNetwork("torus", 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := nw.Run(context.Background(), ProtoIRE, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := nw.Run(context.Background(), ProtoIRE, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Leaders) != len(r2.Leaders) || r1.Messages != r2.Messages || r1.Rounds != r2.Rounds {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
	for i := range r1.Leaders {
		if r1.Leaders[i] != r2.Leaders[i] {
			t.Fatal("leaders differ")
		}
	}
}

func TestElectOptionOverrides(t *testing.T) {
	nw, err := NewNetwork("complete", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Heavier constant => more work.
	light, err := nw.Run(context.Background(), ProtoIRE, WithSeed(3), WithConstant(1))
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := nw.Run(context.Background(), ProtoIRE, WithSeed(3), WithConstant(6))
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Messages <= light.Messages {
		t.Fatalf("constant override had no effect: %d vs %d", heavy.Messages, light.Messages)
	}
	// Explicit walk count.
	if _, err := nw.Run(context.Background(), ProtoIRE, WithSeed(3), WithWalks(5)); err != nil {
		t.Fatal(err)
	}
	// Manual tmix/phi inputs (linear upper bounds are allowed).
	if _, err := nw.Run(context.Background(), ProtoIRE, WithSeed(3), WithProtoConfig(core.ProtoConfig{TMix: 8, Phi: 0.4})); err != nil {
		t.Fatal(err)
	}
	// Invalid conductance must surface as an error.
	if _, err := nw.Run(context.Background(), ProtoIRE, WithSeed(3), WithProtoConfig(core.ProtoConfig{Phi: 2})); err == nil {
		t.Fatal("invalid conductance accepted")
	}
}

func TestElectRevocableStabilizes(t *testing.T) {
	nw, err := NewNetwork("complete", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(context.Background(), ProtoRevocable,
		WithSeed(2),
		WithIsoperimetric(mustProfile(t, nw).Isoperimetric),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatalf("revocable election not unique: %+v", res)
	}
	if res.Certificate.Estimate == 0 || res.Certificate.ID == 0 {
		t.Fatalf("empty certificate: %+v", res.Certificate)
	}
	if res.FinalEstimate < res.Certificate.Estimate {
		t.Fatal("final estimate below certificate estimate")
	}
}

func TestElectRevocableCalibrated(t *testing.T) {
	nw, err := NewNetwork("cycle", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(context.Background(), ProtoRevocable,
		WithSeed(5),
		WithIsoperimetric(mustProfile(t, nw).Isoperimetric),
		WithCalibration(0.5, 0.05),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatalf("calibrated revocable election not unique: %+v", res)
	}
}

func TestElectRevocableMaxRounds(t *testing.T) {
	nw, err := NewNetwork("complete", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(context.Background(), ProtoRevocable, WithSeed(1), WithProtoConfig(core.ProtoConfig{MaxRounds: 10})); err == nil {
		t.Fatal("expected stabilization failure with tiny round budget")
	}
}

func TestElectRevocableInvalidEpsilon(t *testing.T) {
	nw, err := NewNetwork("complete", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(context.Background(), ProtoRevocable, WithSeed(1), WithEpsilon(2)); err == nil {
		t.Fatal("invalid epsilon accepted")
	}
}

func TestStatsConsistency(t *testing.T) {
	nw, err := NewNetwork("hypercube", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := mustProfile(t, nw)
	if s.N != 16 || s.M != 32 || s.Diameter != 4 {
		t.Fatalf("hypercube profile %+v", s)
	}
	if s.SpectralGap <= 0 || s.SpectralGap >= 1 {
		t.Fatalf("gap %v", s.SpectralGap)
	}
}

func TestElectExplicit(t *testing.T) {
	nw, err := NewNetwork("torus", 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(0); s < 5; s++ {
		res, err := nw.Run(context.Background(), ProtoExplicit, WithSeed(100+s))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Unique {
			continue
		}
		if !res.AllKnow {
			t.Fatal("announcement did not reach every node")
		}
		if res.LeaderID == 0 {
			t.Fatal("leader ID missing")
		}
		leader := res.Leaders[0]
		if res.Parents[leader] != -1 || res.Depths[leader] != 0 {
			t.Fatalf("leader tree fields wrong: parent=%d depth=%d", res.Parents[leader], res.Depths[leader])
		}
		// Walking parents from any node reaches the leader.
		for v := 0; v < nw.N(); v++ {
			cur, hops := v, 0
			for cur != leader {
				cur = res.Parents[cur]
				if cur < 0 || hops > nw.N() {
					t.Fatalf("broken parent chain from %d", v)
				}
				hops++
			}
		}
		return
	}
	t.Fatal("no unique election across seeds")
}
