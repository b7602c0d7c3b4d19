package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 %v", q)
	}
	if q := Quantile(xs, 0.5); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("median %v", q)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Quantile sorted caller slice")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
}

func TestQuantileMonotone(t *testing.T) {
	if err := quick.Check(func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = float64(i)
			}
		}
		a := float64(aRaw) / 255
		b := float64(bRaw) / 255
		if a > b {
			a, b = b, a
		}
		return Quantile(raw, a) <= Quantile(raw, b)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesMatchesQuantile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 8}
	qs := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
	got := Quantiles(xs, qs...)
	for i, q := range qs {
		if want := Quantile(xs, q); got[i] != want {
			t.Fatalf("q=%v: Quantiles %v, Quantile %v", q, got[i], want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 9 {
		t.Fatal("Quantiles sorted caller slice")
	}
}

func TestQuantilesEmpty(t *testing.T) {
	got := Quantiles(nil, 0.5, 0.9)
	if len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty quantiles %v", got)
	}
	if got := Quantiles([]float64{1, 2, 3}); len(got) != 0 {
		t.Fatalf("no qs requested: %v", got)
	}
}

func TestDistOfKnownValues(t *testing.T) {
	d := DistOf([]float64{1, 2, 3, 4, 5})
	if d.N != 5 || d.Mean != 3 || d.Min != 1 || d.Max != 5 || d.P50 != 3 {
		t.Fatalf("dist %+v", d)
	}
	if math.Abs(d.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev %v", d.StdDev)
	}
	if d.P90 < d.P50 || d.P99 < d.P90 || d.P99 > d.Max {
		t.Fatalf("tail quantiles disordered: %+v", d)
	}
}

func TestDistOfEmpty(t *testing.T) {
	d := DistOf(nil)
	if d != (Dist{}) {
		t.Fatalf("empty dist %+v", d)
	}
}

func TestDistOfSingleTrial(t *testing.T) {
	d := DistOf([]float64{7})
	if d.N != 1 || d.Mean != 7 || d.StdDev != 0 || d.Min != 7 || d.Max != 7 {
		t.Fatalf("single dist %+v", d)
	}
	if d.P50 != 7 || d.P90 != 7 || d.P99 != 7 {
		t.Fatalf("single quantiles %+v", d)
	}
}

func TestDistOfAllEqual(t *testing.T) {
	d := DistOf([]float64{4, 4, 4, 4})
	if d.StdDev != 0 || d.Min != 4 || d.Max != 4 || d.P50 != 4 || d.P99 != 4 {
		t.Fatalf("all-equal dist %+v", d)
	}
}

func TestWilson(t *testing.T) {
	lo, hi := Wilson(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v, %v] should contain 0.5", lo, hi)
	}
	if lo < 0.39 || hi > 0.61 {
		t.Fatalf("interval [%v, %v] too wide for n=100", lo, hi)
	}
	lo0, hi0 := Wilson(0, 10)
	if lo0 != 0 || hi0 < 0.2 {
		t.Fatalf("zero-successes interval [%v, %v]", lo0, hi0)
	}
	loAll, hiAll := Wilson(10, 10)
	if hiAll != 1 || loAll > 0.8 {
		t.Fatalf("all-successes interval [%v, %v]", loAll, hiAll)
	}
	loE, hiE := Wilson(0, 0)
	if loE != 0 || hiE != 1 {
		t.Fatalf("empty interval [%v, %v]", loE, hiE)
	}
}

func TestWilsonInUnitInterval(t *testing.T) {
	if err := quick.Check(func(s, n uint8) bool {
		trials := int(n)
		succ := int(s)
		if succ > trials {
			succ = trials
		}
		lo, hi := Wilson(succ, trials)
		return lo >= 0 && hi <= 1 && lo <= hi
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogLogSlopeExactPowerLaw(t *testing.T) {
	var xs, ys []float64
	for _, x := range []float64{1, 2, 4, 8, 16, 32} {
		xs = append(xs, x)
		ys = append(ys, 3*math.Pow(x, 1.7))
	}
	slope, r2 := LogLogSlope(xs, ys)
	if math.Abs(slope-1.7) > 1e-9 {
		t.Fatalf("slope %v want 1.7", slope)
	}
	if r2 < 0.999999 {
		t.Fatalf("r2 %v", r2)
	}
}

func TestLogLogSlopeSkipsNonPositive(t *testing.T) {
	slope, r2 := LogLogSlope([]float64{0, -1, 2, 4}, []float64{1, 1, 4, 16})
	if math.Abs(slope-2) > 1e-9 || r2 < 0.99 {
		t.Fatalf("slope %v r2 %v", slope, r2)
	}
}

func TestLogLogSlopeDegenerate(t *testing.T) {
	if s, r := LogLogSlope([]float64{5}, []float64{5}); s != 0 || r != 0 {
		t.Fatalf("single point: %v %v", s, r)
	}
	if s, r := LogLogSlope([]float64{3, 3}, []float64{1, 9}); s != 0 || r != 0 {
		t.Fatalf("vertical line: %v %v", s, r)
	}
}

func TestLogLogSlopePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LogLogSlope([]float64{1}, []float64{1, 2})
}
