package spectral

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// mustProfile profiles g in the given regime (seed 1), failing the test on
// error.
func mustProfile(t testing.TB, g *graph.Graph, mode Mode) *Profile {
	t.Helper()
	p, err := ProfileGraphMode(g, mode, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// product returns a·b in a fresh matrix.
func product(a, b *dense) *dense {
	out := newDense(a.n)
	mulInto(out, a, b)
	return out
}

// identity returns the n x n identity matrix.
func identity(n int) *dense {
	m := newDense(n)
	for i := 0; i < n; i++ {
		m.row(i)[i] = 1
	}
	return m
}

func TestLazyWalkMatrixIsStochastic(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(9), graph.Complete(6), graph.Star(7), graph.Path(5),
	} {
		m := lazyWalkMatrix(g)
		for v := 0; v < g.N(); v++ {
			sum := 0.0
			for _, x := range m.row(v) {
				sum += x
			}
			if !almostEqual(sum, 1, 1e-12) {
				t.Fatalf("row %d sums to %v", v, sum)
			}
			if m.row(v)[v] < 0.5-1e-12 {
				t.Fatalf("laziness violated at %d: %v", v, m.row(v)[v])
			}
		}
	}
}

func TestDenseMulIdentity(t *testing.T) {
	p := lazyWalkMatrix(graph.Cycle(6))
	q := product(p, identity(6))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if !almostEqual(p.row(i)[j], q.row(i)[j], 1e-15) {
				t.Fatalf("P*I != P at (%d,%d)", i, j)
			}
		}
	}
}

// TestStepLazyPreservesMass: the estimate regime's sparse distribution
// step keeps a point mass a probability distribution.
func TestStepLazyPreservesMass(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Complete(5), graph.Star(7), graph.Path(6)} {
		x, y := make([]float64, g.N()), make([]float64, g.N())
		x[0] = 1
		for step := 0; step < 10; step++ {
			stepLazy(g, x, y)
			x, y = y, x
			sum := 0.0
			for _, v := range x {
				sum += v
			}
			if !almostEqual(sum, 1, 1e-12) {
				t.Fatalf("n=%d: mass leaked at step %d: %v", g.N(), step, sum)
			}
		}
	}
}

func TestDenseMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mulInto(newDense(3), newDense(3), newDense(4))
}

func TestSecondEigenvalueCycleClosedForm(t *testing.T) {
	// Lazy walk on C_n: eigenvalues 1/2 + cos(2πk/n)/2; λ₂ at k=1.
	for _, n := range []int{8, 16, 32} {
		want := 0.5 + 0.5*math.Cos(2*math.Pi/float64(n))
		got := mustProfile(t, graph.Cycle(n), ModeExact).Lambda2
		if !almostEqual(got, want, 1e-6) {
			t.Fatalf("C_%d lambda2 = %v want %v", n, got, want)
		}
	}
}

func TestSecondEigenvalueCompleteClosedForm(t *testing.T) {
	// Lazy walk on K_n: non-top eigenvalues all 1/2 - 1/(2(n-1)).
	for _, n := range []int{5, 10, 20} {
		want := 0.5 - 0.5/float64(n-1)
		got := mustProfile(t, graph.Complete(n), ModeExact).Lambda2
		if !almostEqual(got, want, 1e-6) {
			t.Fatalf("K_%d lambda2 = %v want %v", n, got, want)
		}
	}
}

func TestSecondEigenvalueInUnitInterval(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(seed uint64) bool {
		g, err := graph.GNPConnected(15, 0.35, r.Split(seed))
		if err != nil {
			return true // skip rare disconnected draws
		}
		l := mustProfile(t, g, ModeExact).Lambda2
		return l > 0 && l < 1
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStationaryDistribution(t *testing.T) {
	g := graph.Star(6)
	pi := stationary(g)
	sum := 0.0
	for _, p := range pi {
		sum += p
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("stationary mass %v", sum)
	}
	// Hub has degree 5 of total 2m=10.
	if !almostEqual(pi[0], 0.5, 1e-12) {
		t.Fatalf("hub mass %v want 0.5", pi[0])
	}
	// Stationarity: pi P = pi.
	next := make([]float64, len(pi))
	stepLazy(g, pi, next)
	for i := range pi {
		if !almostEqual(next[i], pi[i], 1e-12) {
			t.Fatalf("pi not stationary at %d", i)
		}
	}
}

func TestMixingTimeCompleteIsSmall(t *testing.T) {
	tm, capped := mixingTimeExact(graph.Complete(8), 1000)
	if capped {
		t.Fatal("K8 search unexpectedly capped")
	}
	if tm < 1 || tm > 16 {
		t.Fatalf("K8 mixing time %d out of expected range", tm)
	}
}

func TestMixingTimeMonotoneInCycleSize(t *testing.T) {
	t8, _ := mixingTimeExact(graph.Cycle(8), 100000)
	t16, _ := mixingTimeExact(graph.Cycle(16), 100000)
	t32, _ := mixingTimeExact(graph.Cycle(32), 100000)
	if !(t8 < t16 && t16 < t32) {
		t.Fatalf("cycle mixing times not increasing: %d %d %d", t8, t16, t32)
	}
	// Quadratic growth: t32/t16 should be near 4 (within a factor).
	ratio := float64(t32) / float64(t16)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("cycle mixing growth ratio %v not ~4", ratio)
	}
}

func TestMixingTimeExactMatchesDefinition(t *testing.T) {
	g := graph.Cycle(8)
	tm, _ := mixingTimeExact(g, 10000)
	pi := stationary(g)
	p := lazyWalkMatrix(g)
	// P^(tm) mixes, P^(tm-1) does not.
	pow := identity(g.N())
	for i := 0; i < tm-1; i++ {
		pow = product(pow, p)
	}
	if withinMixingTolerance(pow, pi) {
		t.Fatal("P^(tmix-1) already mixed")
	}
	pow = product(pow, p)
	if !withinMixingTolerance(pow, pi) {
		t.Fatal("P^tmix not mixed")
	}
}

func TestMixingTimeExactHonorsCap(t *testing.T) {
	got, capped := mixingTimeExact(graph.Cycle(64), 10)
	if got != 10 || !capped {
		t.Fatalf("cap ignored: got %d capped=%v", got, capped)
	}
}

// TestMixingTimeSpectralUpperBoundsExact: the spectral bound the exact
// regime prints above MixingTimeExactLimit, taken from the profile's own
// gap, bounds the exact mixing time from above and not too loosely.
func TestMixingTimeSpectralUpperBoundsExact(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Cycle(16), graph.Complete(12), graph.Hypercube(4)} {
		exact, _ := mixingTimeExact(g, 1000000)
		spec := mixingTimeFromGap(g, mustProfile(t, g, ModeExact).SpectralGap)
		if spec < exact {
			t.Fatalf("spectral estimate %d below exact %d", spec, exact)
		}
		if spec > exact*200 {
			t.Fatalf("spectral estimate %d too loose vs exact %d", spec, exact)
		}
	}
}

func TestConductanceCycleClosedForm(t *testing.T) {
	// Φ(C_n) for even n: the half cut has 2 edges over volume n, so 2/n.
	if got, _ := enumerateCuts(graph.Cycle(10)); !almostEqual(got, 2.0/10.0, 1e-12) {
		t.Fatalf("cycle conductance %v want %v", got, 2.0/10.0)
	}
}

func TestConductanceCompleteClosedForm(t *testing.T) {
	// K_n even n: cut n/2: edges (n/2)² over vol (n/2)(n-1).
	n := 8
	want := float64(n*n/4) / float64(n/2*(n-1))
	if got, _ := enumerateCuts(graph.Complete(n)); !almostEqual(got, want, 1e-12) {
		t.Fatalf("K%d conductance %v want %v", n, got, want)
	}
}

func TestIsoperimetricClosedForms(t *testing.T) {
	for _, c := range []struct {
		g    *graph.Graph
		want float64
	}{
		{graph.Cycle(12), 4.0 / 12.0}, // i(C_n) for even n: 2/(n/2) = 4/n
		{graph.Complete(8), 4},        // i(K_n): the n/2 cut, (n/2)²/(n/2)
		{graph.Star(8), 1},            // i(Star_n): a singleton leaf
	} {
		if _, got := enumerateCuts(c.g); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("n=%d isoperimetric %v want %v", c.g.N(), got, c.want)
		}
	}
}

func TestIsoperimetricLowerBound(t *testing.T) {
	// i(G) >= 2/n for connected graphs (paper's Corollary 1 argument).
	r := rng.New(2)
	for seed := uint64(0); seed < 10; seed++ {
		g, err := graph.GNPConnected(12, 0.3, r.Split(seed))
		if err != nil {
			continue
		}
		if _, got := enumerateCuts(g); got < 2.0/float64(g.N())-1e-12 {
			t.Fatalf("isoperimetric %v below 2/n", got)
		}
	}
}

// TestSweepCutUpperBoundsExact: the sweep cut the estimate regime runs
// measures real cuts, so it never reports less than the enumerated optimum.
func TestSweepCutUpperBoundsExact(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(14), graph.Complete(10), graph.Barbell(5, 3), graph.Star(10),
	} {
		exactPhi, exactIso := enumerateCuts(g)
		p := mustProfile(t, g, ModeEstimate)
		if p.ExactCuts {
			t.Fatalf("n=%d: estimate profile claims exact cuts", g.N())
		}
		if p.Conductance < exactPhi-1e-9 {
			t.Fatalf("sweep conductance %v below exact %v", p.Conductance, exactPhi)
		}
		if p.Isoperimetric < exactIso-1e-9 {
			t.Fatalf("sweep isoperimetric %v below exact %v", p.Isoperimetric, exactIso)
		}
	}
}

func TestSweepCutTightOnSymmetricFamilies(t *testing.T) {
	// On the cycle the Fiedler sweep finds the optimal cut; on the barbell
	// one within a factor 1.5.
	for _, c := range []struct {
		g     *graph.Graph
		slack float64
	}{{graph.Cycle(16), 1}, {graph.Barbell(6, 4), 1.5}} {
		exact, _ := enumerateCuts(c.g)
		if sweep := mustProfile(t, c.g, ModeEstimate).Conductance; sweep > exact*c.slack+1e-9 {
			t.Fatalf("n=%d: sweep conductance %v, exact %v", c.g.N(), sweep, exact)
		}
	}
}

func TestCheegerBoundsHold(t *testing.T) {
	// gap/2 <= φ(P) <= sqrt(2·gap) for the lazy chain, whose conductance
	// (edge measure over stationary measure) is φ(P) = Φ/2.
	for _, g := range []*graph.Graph{graph.Cycle(12), graph.Complete(8), graph.Hypercube(3)} {
		p := mustProfile(t, g, ModeExact)
		lo, hi, phi := p.SpectralGap/2, math.Sqrt(2*p.SpectralGap), p.Conductance/2
		if phi < lo-1e-9 || phi > hi+1e-9 {
			t.Fatalf("chain conductance %v outside Cheeger [%v, %v]", phi, lo, hi)
		}
	}
}

func TestEnumerateCutsPanicsBeyondLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	enumerateCuts(graph.Cycle(ExactCutLimit + 2))
}

func TestProfileGraph(t *testing.T) {
	g := graph.Cycle(12)
	p, err := ProfileGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 12 || p.M != 12 || p.Diameter != 6 {
		t.Fatalf("profile basics wrong: %+v", p)
	}
	if !p.ExactMixing || !p.ExactCuts {
		t.Fatal("small graph should get exact quantities")
	}
	if !almostEqual(p.Conductance, 2.0/12, 1e-12) {
		t.Fatalf("profile conductance %v", p.Conductance)
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestProfileStringLabelsSources: each printed number names the method
// that produced it, and a capped mixing time says so.
func TestProfileStringLabelsSources(t *testing.T) {
	for _, c := range []struct {
		p          Profile
		tmix, cuts string
	}{
		{Profile{ExactMixing: true, ExactCuts: true}, "(exact)", "(exact)"},
		{Profile{ExactMixing: true, MixingCapped: true}, "(exact, capped)", "(sweep cut)"},
		{Profile{}, "(spectral bound)", "(sweep cut)"},
		{Profile{Estimated: true}, "(sampled)", "(sweep cut)"},
		{Profile{Estimated: true, MixingCapped: true}, "(sampled, capped)", "(sweep cut)"},
	} {
		lines := strings.Split(c.p.String(), "\n")
		if len(lines) != 4 || !strings.HasSuffix(lines[2], c.tmix) || !strings.HasSuffix(lines[3], c.cuts) {
			t.Errorf("%+v: got %q, want tmix %s and cuts %s", c.p, lines, c.tmix, c.cuts)
		}
	}
}

func TestProfileRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := ProfileGraph(b.Graph()); err == nil {
		t.Fatal("expected error for disconnected graph")
	}
}

func TestSpectralGapOrdersFamilies(t *testing.T) {
	// Expander-like families mix faster than cycles of the same size.
	cyc := mustProfile(t, graph.Cycle(16), ModeExact).SpectralGap
	hyp := mustProfile(t, graph.Hypercube(4), ModeExact).SpectralGap
	kom := mustProfile(t, graph.Complete(16), ModeExact).SpectralGap
	if !(cyc < hyp && hyp < kom) {
		t.Fatalf("gap ordering violated: cycle=%v hypercube=%v complete=%v", cyc, hyp, kom)
	}
}

func BenchmarkMixingTimeExact(b *testing.B) {
	g := graph.Cycle(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = mixingTimeExact(g, 1<<20)
	}
}

func BenchmarkEnumerateCuts(b *testing.B) {
	g := graph.Cycle(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = enumerateCuts(g)
	}
}

func TestSweepCutCheegerConsistency(t *testing.T) {
	// Property: the sweep-cut Φ upper bound must be consistent with the
	// Cheeger lower bound gap/2 <= φ(P) = Φ/2, i.e. sweepΦ >= gap.
	r := rng.New(31)
	if err := quick.Check(func(seed uint64) bool {
		g, err := graph.GNPConnected(14, 0.35, r.Split(seed))
		if err != nil {
			return true
		}
		p := mustProfile(t, g, ModeEstimate)
		return p.Conductance >= p.SpectralGap-1e-9
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMixingTimeInvariantUnderPortPermutation(t *testing.T) {
	// Mixing time is a graph property: relabeling ports must not change it.
	r := rng.New(12)
	g, err := graph.RandomRegular(24, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	perm := g.PermutePorts(r.Split(5))
	if a, b := mustProfile(t, g, ModeExact).MixingTime, mustProfile(t, perm, ModeExact).MixingTime; a != b {
		t.Fatalf("mixing time changed under port permutation: %d vs %d", a, b)
	}
}
