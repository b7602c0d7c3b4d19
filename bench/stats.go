package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"anonlead/internal/stats"
)

// median is the sample median (0 for an empty sample).
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// reportable says whether the q-quantile of xs has at least ten samples
// beyond it; a percentile resting on fewer is not reported.
func reportable(xs []float64, q float64) bool {
	return math.Floor(float64(len(xs))*(1-q)+1e-9) >= 10
}

// tailPercentile returns the highest of p90, p99 and p99.9 that is
// reportable, or ok=false when even p90 is not (fewer than 100 samples).
func tailPercentile(xs []float64) (label string, value float64, ok bool) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if reportable(xs, p.q) {
			return p.label, stats.Quantile(xs, p.q), true
		}
	}
	return "", 0, false
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// ratio is a/b, 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocMeter reads the allocation counters around a timed region.
type allocMeter struct{ mallocs, bytes uint64 }

func readAllocs() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.Mallocs, m.TotalAlloc}
}

// since returns the allocations and bytes allocated after a was read.
func (a allocMeter) since() (mallocs, bytes uint64) {
	b := readAllocs()
	return b.mallocs - a.mallocs, b.bytes - a.bytes
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: peak rss: %w", err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: peak rss: no VmHWM in /proc/self/status")
}
