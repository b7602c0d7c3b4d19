package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split(1)
	c2 := root.Split(2)
	c1again := New(7).Split(1)
	for i := 0; i < 100; i++ {
		v1, v2 := c1.Uint64(), c2.Uint64()
		if v1 == v2 {
			t.Fatalf("sibling streams agree at draw %d", i)
		}
		if got := c1again.Uint64(); got != v1 {
			t.Fatalf("split not reproducible at draw %d: %d vs %d", i, got, v1)
		}
	}
}

func TestSplitStringStable(t *testing.T) {
	a := New(9).SplitString("phase:walk")
	b := New(9).SplitString("phase:walk")
	c := New(9).SplitString("phase:cc")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same label produced different streams")
	}
	if a.Uint64() == c.Uint64() {
		t.Fatal("different labels produced identical streams")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(4)
	if err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestUniformity(t *testing.T) {
	r := New(5)
	const buckets, draws = 16, 160000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 dof: chi2 > 45 has p < 1e-4.
	if chi2 > 45 {
		t.Fatalf("uniformity suspect: chi2=%.1f counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(6)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(7)
	for i := 0; i < 1000; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) fired")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) did not fire")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("negative p fired")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("p>1 did not fire")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(8)
	const draws = 200000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < draws; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		rate := float64(hits) / draws
		if math.Abs(rate-p) > 0.01 {
			t.Fatalf("Bernoulli(%v) rate %v", p, rate)
		}
	}
}

func TestShuffleCoversArrangements(t *testing.T) {
	r := New(10)
	counts := map[[3]int]int{}
	for i := 0; i < 60000; i++ {
		a := [3]int{0, 1, 2}
		r.Shuffle(3, func(i, j int) { a[i], a[j] = a[j], a[i] })
		counts[a]++
	}
	if len(counts) != 6 {
		t.Fatalf("expected 6 arrangements, saw %d", len(counts))
	}
	for arr, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("arrangement %v count %d far from uniform 10000", arr, c)
		}
	}
}

func TestCoinBalance(t *testing.T) {
	r := New(12)
	heads := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Coin() {
			heads++
		}
	}
	if heads < draws*48/100 || heads > draws*52/100 {
		t.Fatalf("coin unbalanced: %d/%d", heads, draws)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func TestReseedMatchesNewAndSplit(t *testing.T) {
	var r RNG
	r.Reseed(42)
	fresh := New(42)
	for i := 0; i < 16; i++ {
		if a, b := r.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: Reseed stream %d != New stream %d", i, a, b)
		}
	}

	parent := New(7)
	split := parent.Split(3)
	var inPlace RNG
	inPlace.Reseed(parent.DeriveSeed(3))
	for i := 0; i < 16; i++ {
		if a, b := inPlace.Uint64(), split.Uint64(); a != b {
			t.Fatalf("draw %d: Reseed(DeriveSeed) %d != Split %d", i, a, b)
		}
	}
}
