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
		p := estimateProfile(c.g, 7)
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
		p := estimateProfile(g, 1)
		want := (1 + math.Cos(2*math.Pi/float64(n))) / 2
		if math.Abs(p.Lambda2-want) > 1e-6 {
			t.Fatalf("cycle%d: lambda2 %v want %v", n, p.Lambda2, want)
		}
	}
	g := graph.Complete(32)
	p := estimateProfile(g, 1)
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
	p := estimateProfile(g, 3)
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
	p := estimateProfile(g, 1)
	got, capped := mixFromStart(g, stationary(g), 0, 1/(2*float64(g.N())), 1, p.SpectralGap)
	if want := max(1, mixingTimeFromGap(g, p.SpectralGap)); got != want || !capped {
		t.Fatalf("fallback returned (%d, %t), want (%d, true)", got, capped, want)
	}
}

// TestEstimateProfileDeterministic pins byte-identical estimated profiles
// for identical (graph, seed) inputs — the property repeated sweeps and
// the cross-scheduler determinism tests build on.
func TestEstimateProfileDeterministic(t *testing.T) {
	build := func() *graph.Graph {
		g, err := graph.ByName("expander", 600, rng.New(5).SplitString("graph:expander"))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a := estimateProfile(build(), 11)
	b := estimateProfile(build(), 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("estimated profiles diverged:\n%+v\n%+v", a, b)
	}
	if !a.Estimated || a.ExactCuts {
		t.Fatalf("estimate regime flags wrong: %+v", a)
	}
}

// TestProfileGraphPicksRegimeBySize pins the size split: the exact
// regime up to MixingTimeExactLimit, the estimate regime above, each
// bit-identical to its algorithm called directly.
func TestProfileGraphPicksRegimeBySize(t *testing.T) {
	for _, c := range []struct {
		n    int
		want func(*graph.Graph) *Profile
	}{
		{MixingTimeExactLimit, exactProfile},
		{MixingTimeExactLimit + 1, func(g *graph.Graph) *Profile { return estimateProfile(g, 9) }},
	} {
		g, err := graph.ByName("expander", c.n, rng.New(2).SplitString("graph:expander"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ProfileGraph(g, 9)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.want(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: ProfileGraph diverged from its regime:\n%+v\n%+v", c.n, got, want)
		}
		if got.Estimated != (c.n > MixingTimeExactLimit) {
			t.Fatalf("n=%d: Estimated=%t", c.n, got.Estimated)
		}
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
		if _, err := ProfileGraph(g, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactRegimeProfile measures the exact-regime profile on the gate
// sweep's most expensive graphs (dense tmix powering dominates the first
// two, the power iteration the cycle).
func BenchmarkExactRegimeProfile(b *testing.B) {
	for _, c := range []struct {
		family string
		n      int
	}{{"expander", 256}, {"hypercube", 256}, {"diam2", 129}, {"cycle", 96}} {
		g := mustFamily(b, c.family, c.n, 1)
		b.Run(fmt.Sprintf("%s-%d", c.family, c.n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ProfileGraph(g, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
