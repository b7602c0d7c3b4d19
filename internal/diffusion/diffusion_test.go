package diffusion

import (
	"math"
	"testing"
	"testing/quick"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/spectral"
)

func TestNewValidation(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := New(g, 0.1, make([]float64, 4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := New(g, 0, make([]float64, 5)); err == nil {
		t.Fatal("zero share accepted")
	}
	if _, err := New(g, 0.6, make([]float64, 5)); err == nil {
		t.Fatal("share*deg > 1 accepted")
	}
	if _, err := New(g, 0.25, make([]float64, 5)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestBlackInit(t *testing.T) {
	pot := BlackInit([]bool{true, false, false})
	want := []float64{0, 1, 1}
	for i := range want {
		if pot[i] != want[i] {
			t.Fatalf("pot %v", pot)
		}
	}
}

func TestConservation(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(seed uint64) bool {
		rr := r.Split(seed)
		g, err := graph.GNPConnected(12, 0.35, rr)
		if err != nil {
			return true
		}
		init := make([]float64, g.N())
		for i := range init {
			init[i] = rr.Float64() * 3
		}
		share := 0.9 / float64(g.MaxDegree())
		p, err := New(g, share, init)
		if err != nil {
			return false
		}
		before := p.Sum()
		p.Run(200)
		return math.Abs(p.Sum()-before) < 1e-9
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConvergesToAverage(t *testing.T) {
	g := graph.Cycle(10)
	init := make([]float64, 10)
	init[0] = 10 // all potential at one node
	p, err := New(g, 0.25, init)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(5000)
	for v := 0; v < 10; v++ {
		if math.Abs(p.Potential(v)-1) > 1e-6 {
			t.Fatalf("node %d potential %v not at average 1", v, p.Potential(v))
		}
	}
}

func TestSpreadMonotoneNonIncreasing(t *testing.T) {
	g := graph.Torus(4, 4)
	r := rng.New(5)
	init := make([]float64, g.N())
	for i := range init {
		init[i] = r.Float64()
	}
	p, err := New(g, 0.1, init)
	if err != nil {
		t.Fatal(err)
	}
	prev := p.Spread()
	for i := 0; i < 300; i++ {
		p.Step()
		cur := p.Spread()
		if cur > prev+1e-12 {
			t.Fatalf("spread increased at step %d: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestRunUntilSpread(t *testing.T) {
	g := graph.Complete(8)
	init := make([]float64, 8)
	init[0] = 8
	p, err := New(g, 0.05, init)
	if err != nil {
		t.Fatal(err)
	}
	steps := p.RunUntilSpread(1e-3, 100000)
	if steps == 0 || p.Spread() > 1e-3 {
		t.Fatalf("did not converge: steps=%d spread=%v", steps, p.Spread())
	}
}

// exactIsoperimetric returns i(G) from g's exact profile, failing the test
// unless the profile enumerated the cuts.
func exactIsoperimetric(t *testing.T, g *graph.Graph) float64 {
	t.Helper()
	p, err := spectral.ProfileGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.ExactCuts {
		t.Fatalf("n=%d: profile cuts are not exact", g.N())
	}
	return p.Isoperimetric
}

func TestConvergenceBoundSufficient(t *testing.T) {
	// Lemma 4's bound must actually achieve the requested accuracy: run
	// the process for the bound and verify every node is within γ
	// relative error of the average.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle8", graph.Cycle(8)},
		{"complete6", graph.Complete(6)},
		{"star6", graph.Star(6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			iso := exactIsoperimetric(t, g)
			share := 0.5 / float64(g.MaxDegree())
			gamma := 0.01
			bound := ConvergenceBound(g, share, iso, gamma)
			r := rng.New(3)
			init := make([]float64, g.N())
			for i := range init {
				init[i] = r.Float64() * 2
			}
			p, err := New(g, share, init)
			if err != nil {
				t.Fatal(err)
			}
			avg := p.Sum() / float64(g.N())
			p.Run(bound)
			for v := 0; v < g.N(); v++ {
				if math.Abs(p.Potential(v)-avg) > gamma*avg+1e-9 {
					t.Fatalf("node %d at %v, avg %v, after Lemma 4 bound %d", v, p.Potential(v), avg, bound)
				}
			}
		})
	}
}

func TestConvergenceBoundDegenerate(t *testing.T) {
	g := graph.Cycle(4)
	if ConvergenceBound(g, 0.1, 0, 0.1) != math.MaxInt32 {
		t.Fatal("zero iso should be unbounded")
	}
	if ConvergenceBound(g, 0.1, 1, 0) != math.MaxInt32 {
		t.Fatal("zero gamma should be unbounded")
	}
}

func TestPotentialsIsCopy(t *testing.T) {
	g := graph.Path(3)
	p, err := New(g, 0.3, []float64{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	pots := p.Potentials()
	pots[0] = 99
	if p.Potential(0) == 99 {
		t.Fatal("Potentials leaked internal state")
	}
}

func TestLemma5ThresholdRegime(t *testing.T) {
	// Reproduce Lemma 5 numerically: k^{1+ε} ≥ 2n+1, one white node,
	// r ≥ (2/φ²)·ln(k^{2(1+ε)}) steps → no potential above
	// τ(k) = 1 − 1/(k^{1+ε}−1).
	g := graph.Cycle(6)
	n := g.N()
	eps := 0.5
	k := 8.0 // k^{1.5} = 22.6 >= 2n+1 = 13
	kp := math.Pow(k, 1+eps)
	share := 1 / (2 * kp)
	iso := exactIsoperimetric(t, g)
	white := make([]bool, n)
	white[2] = true
	p, err := New(g, share, BlackInit(white))
	if err != nil {
		t.Fatal(err)
	}
	steps := ConvergenceBound(g, share, iso, 1/kp)
	p.Run(steps)
	tau := 1 - 1/(kp-1)
	if p.Max() > tau {
		t.Fatalf("max potential %v above tau %v after %d steps", p.Max(), tau, steps)
	}
}

func TestLemma5LowEstimateFiresAlarm(t *testing.T) {
	// Converse sanity: with k far too small the diffusion is too short
	// and too weak, so some node stays above τ(k) (the alarm the
	// protocol relies on to reject low estimates). With no white nodes
	// potentials stay at 1 > τ trivially; test the interesting case of
	// one white node and a tiny k.
	g := graph.Cycle(24)
	eps := 0.5
	k := 2.0 // k^{1.5} ≈ 2.8 << 2n+1
	kp := math.Pow(k, 1+eps)
	share := 1 / (2 * kp)
	white := make([]bool, g.N())
	white[0] = true
	p, err := New(g, share, BlackInit(white))
	if err != nil {
		t.Fatal(err)
	}
	// The protocol's r(k) for this k is tiny; even a generous budget
	// cannot push every node below τ because the average itself,
	// (n-1)/n, exceeds τ(2) = 1 - 1/(kp-1) ≈ 0.45.
	p.Run(2000)
	tau := 1 - 1/(kp-1)
	if p.Max() <= tau {
		t.Fatalf("low-k alarm would not fire: max %v <= tau %v", p.Max(), tau)
	}
}
