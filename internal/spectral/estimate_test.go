package spectral

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// TestMixingTimeSampledMatchesExactOnTransitive pins the sampled-walk
// estimator to the exact definition where the two are provably equal:
// on vertex-transitive graphs every point-mass start has the same mixing
// time, so any sampled start set reproduces the exact row maximum.
func TestMixingTimeSampledMatchesExactOnTransitive(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle8", graph.Cycle(8)},
		{"cycle16", graph.Cycle(16)},
		{"cycle32", graph.Cycle(32)},
		{"complete8", graph.Complete(8)},
		{"complete16", graph.Complete(16)},
		{"complete32", graph.Complete(32)},
		{"hypercube16", graph.Hypercube(4)},
	}
	for _, c := range cases {
		exact, exactCapped := mixingTimeExact(c.g, 1_000_000)
		if exactCapped {
			t.Fatalf("%s: exact reference capped", c.name)
		}
		p, err := ProfileGraphMode(c.g, ModeEstimate, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, capped := p.MixingTime, p.MixingCapped
		if capped {
			t.Fatalf("%s: sampled estimator capped at n=%d (budget too small)", c.name, c.g.N())
		}
		if got != exact {
			t.Fatalf("%s: sampled tmix %d != exact %d", c.name, got, exact)
		}
	}
}

// TestEstimateLambda2ClosedForm checks the budgeted power iteration
// against the closed-form lazy-walk eigenvalues: λ₂ = (1+cos(2π/n))/2 on
// the cycle and (1 + (-1/(n-1)))·…  — for K_n the non-trivial eigenvalue
// of D⁻¹A is -1/(n-1), so the lazy λ₂ = (1 - 1/(n-1))/2.
func TestEstimateLambda2ClosedForm(t *testing.T) {
	for _, n := range []int{16, 64} {
		g := graph.Cycle(n)
		p, err := ProfileGraphMode(g, ModeEstimate, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := (1 + math.Cos(2*math.Pi/float64(n))) / 2
		if math.Abs(p.Lambda2-want) > 1e-6 {
			t.Fatalf("cycle%d: lambda2 %v want %v", n, p.Lambda2, want)
		}
	}
	g := graph.Complete(32)
	p, err := ProfileGraphMode(g, ModeEstimate, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 - 1/float64(31)) / 2
	if math.Abs(p.Lambda2-want) > 1e-6 {
		t.Fatalf("K32: lambda2 %v want %v", p.Lambda2, want)
	}
}

// TestEstimateExtrapolationTracksExact exercises the capped/extrapolated
// path: a cycle long enough that the walk budget runs out must still land
// within a small factor of the exact mixing time, with the capped flag
// raised.
func TestEstimateExtrapolationTracksExact(t *testing.T) {
	g := graph.Cycle(96)
	exact, _ := mixingTimeExact(g, 1_000_000)
	p, err := ProfileGraphMode(g, ModeEstimate, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, capped := p.MixingTime, p.MixingCapped
	if !capped {
		t.Skip("budget covered the cycle; extrapolation not exercised")
	}
	lo, hi := exact/2, exact*2
	if got < lo || got > hi {
		t.Fatalf("extrapolated tmix %d outside [%d,%d] around exact %d", got, lo, hi, exact)
	}
}

// TestEstimateFallbackUsesProfileGap drives the one branch of the sampled
// walk no profile in the corpus reaches: with a budget of 1 step the
// halfway checkpoint is step 0, no decay is measured, and the start falls
// back to the spectral bound of the gap its own profile computed.
func TestEstimateFallbackUsesProfileGap(t *testing.T) {
	g := graph.Cycle(64)
	p := mustProfile(t, g, ModeEstimate)
	got, capped := mixFromStart(g, stationary(g), 0, 1/(2*float64(g.N())), 1, p.SpectralGap)
	if want := max(1, mixingTimeFromGap(g, p.SpectralGap)); got != want || !capped {
		t.Fatalf("fallback returned (%d, %t), want (%d, true)", got, capped, want)
	}
}

// TestEstimateProfileDeterministic pins byte-identical estimated profiles
// for identical (graph, seed) inputs — the property the profile cache and
// the cross-scheduler determinism tests build on.
func TestEstimateProfileDeterministic(t *testing.T) {
	build := func() *graph.Graph {
		g, err := graph.ByName("expander", 600, rng.New(5).SplitString("graph:expander"))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, err := ProfileGraphMode(build(), ModeEstimate, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProfileGraphMode(build(), ModeEstimate, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("estimated profiles diverged:\n%+v\n%+v", a, b)
	}
	if !a.Estimated || a.ExactMixing || a.ExactCuts {
		t.Fatalf("estimate regime flags wrong: %+v", a)
	}
}

// TestProfileGraphModeAutoResolution pins the auto split: exact regime
// (byte-identical to ProfileGraph) at n <= EstimateThreshold, estimate
// regime above.
func TestProfileGraphModeAutoResolution(t *testing.T) {
	small, err := graph.ByName("expander", EstimateThreshold, rng.New(2).SplitString("graph:expander"))
	if err != nil {
		t.Fatal(err)
	}
	auto, err := ProfileGraphMode(small, ModeAuto, 9)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ProfileGraph(small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto, exact) {
		t.Fatalf("auto at threshold diverged from exact:\n%+v\n%+v", auto, exact)
	}

	big, err := graph.ByName("expander", EstimateThreshold+44, rng.New(2).SplitString("graph:expander"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileGraphMode(big, ModeAuto, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Estimated {
		t.Fatalf("auto above threshold stayed exact: %+v", p)
	}
}

// TestParseModeRoundTrips pins the canonical mode strings.
func TestParseModeRoundTrips(t *testing.T) {
	for _, m := range []Mode{ModeAuto, ModeExact, ModeEstimate} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("mode %v: parse(%q) = %v, %v", m, m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if m, err := ParseMode(""); err != nil || m != ModeAuto {
		t.Fatalf("empty mode: %v, %v", m, err)
	}
}

// BenchmarkEstimateProfileExpander measures the streaming profile at the
// scaling-sweep anchor size.
func BenchmarkEstimateProfileExpander(b *testing.B) {
	g, err := graph.ByName("expander", 100_000, rng.New(1).SplitString("graph:expander"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileGraphMode(g, ModeEstimate, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileExact measures the exact-regime profile on the gate
// sweep's most expensive graphs (dense tmix powering dominates the first
// two, the power iteration the cycle).
func BenchmarkProfileExact(b *testing.B) {
	for _, c := range []struct {
		family string
		n      int
	}{{"expander", 256}, {"hypercube", 256}, {"diam2", 129}, {"cycle", 96}} {
		g := mustFamily(b, c.family, c.n, 1)
		b.Run(fmt.Sprintf("%s-%d", c.family, c.n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ProfileGraphMode(g, ModeExact, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
