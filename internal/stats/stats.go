// Package stats provides the statistical toolkit the reproduction's
// verdicts rest on. The paper's guarantees are w.h.p. statements, so
// validating them across runs needs spread, not just point estimates:
//
//   - Dist/DistOf and Quantiles summarize per-trial metric samples
//     (the distributions the bench artifact persists per cell);
//   - Wilson gives the success-rate confidence interval every rendered
//     table and the conformance tests' w.h.p. checks use;
//   - LogLogSlope fits the empirical scaling exponents the Table 1
//     sections report next to the paper's predicted bounds.
//
// See docs/ARCHITECTURE.md for where this sits in the paper-to-code map.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation of
// the sorted sample. An empty sample yields 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// Quantiles returns the qs-quantiles of xs in one pass: the sample is
// copied and sorted once, then each quantile is read by the same linear
// interpolation as Quantile. An empty sample yields all zeros.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// quantileSorted reads the q-quantile of an already-sorted non-empty
// sample by linear interpolation.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Dist is a compact description of a sample's distribution: the moments
// and tail quantiles the bench artifact persists per metric, so a reader
// of the artifact sees a cell's spread, not just its point estimates. The
// artifact keeps N and Mean elsewhere in the cell (its trials and the flat
// per-metric mean), so they are not encoded here.
type Dist struct {
	N      int     `json:"-"`
	Mean   float64 `json:"-"`
	StdDev float64 `json:"stddev"` // sample standard deviation (Bessel-corrected)
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// DistOf computes the distribution of a sample. An empty sample yields the
// zero Dist; a single observation has zero spread.
func DistOf(xs []float64) Dist {
	var d Dist
	d.N = len(xs)
	if d.N == 0 {
		return d
	}
	d.Min, d.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < d.Min {
			d.Min = x
		}
		if x > d.Max {
			d.Max = x
		}
	}
	d.Mean = sum / float64(d.N)
	if d.N > 1 {
		ss := 0.0
		for _, x := range xs {
			dev := x - d.Mean
			ss += dev * dev
		}
		d.StdDev = math.Sqrt(ss / float64(d.N-1))
	}
	q := Quantiles(xs, 0.5, 0.9, 0.99)
	d.P50, d.P90, d.P99 = q[0], q[1], q[2]
	return d
}

// Wilson returns the Wilson-score confidence interval for a binomial
// success rate at ~95% confidence (z = 1.96).
func Wilson(successes, trials int) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	const z = 1.96
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	margin := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// LogLogSlope fits y = a·x^b by least squares in log-log space and returns
// the exponent b with the fit's R². Points with non-positive coordinates
// are skipped. Fewer than two usable points yield (0, 0).
func LogLogSlope(xs, ys []float64) (slope, r2 float64) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(xs), len(ys)))
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return 0, 0
	}
	n := float64(len(lx))
	var sx, sy, sxx, sxy, syy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
		syy += ly[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope = (n*sxy - sx*sy) / den
	// R² from the correlation coefficient.
	varY := n*syy - sy*sy
	if varY == 0 {
		return slope, 1
	}
	r := (n*sxy - sx*sy) / math.Sqrt(den*varY)
	return slope, r * r
}
