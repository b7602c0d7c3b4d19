package obs

import (
	"strings"
	"testing"
)

// withEnabled flips telemetry on for one test and restores the disabled
// default afterwards. Tests share process-wide state (the enabled flag,
// the default registry, the span log), so none of them run in parallel.
func withEnabled(t *testing.T) {
	t.Helper()
	Enable()
	t.Cleanup(func() {
		Disable()
		defaultRegistry.Reset()
		ResetSpans()
	})
}

func TestDisabledMutatorsAreNoOps(t *testing.T) {
	Disable()
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []float64{1, 10})
	c.Inc()
	c.Add(5)
	h.Observe(2)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("disabled mutators recorded: c=%d h.count=%d h.sum=%v",
			c.Value(), h.Count(), h.Sum())
	}
}

func TestCounterGaugeHistogramRecord(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	c := r.Counter("cells_done", "exp", "sweeps")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	h := r.Histogram("dur", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("hist sum = %v, want 556.5", h.Sum())
	}
	// Buckets: <=1: {0.5, 1}, <=10: {5}, <=100: {50}, +Inf: {500}.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestRegistryIdempotentAndLabelCanonical(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	a := r.Counter("x", "b", "2", "a", "1")
	b := r.Counter("x", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order should not distinguish metrics")
	}
	if c := r.Counter("x", "a", "1", "b", "3"); c == a {
		t.Fatal("different label values must be distinct metrics")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name as a different kind should panic")
		}
	}()
	r.Histogram("x", nil, "b", "2", "a", "1")
}

func TestSnapshotStableOrder(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.Counter("zz").Inc()
	r.Counter("aa", "k", "2").Inc()
	r.Counter("aa", "k", "1").Inc()
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d points, want 3", len(snap))
	}
	if snap[0].Name != "aa" || snap[0].Labels["k"] != "1" ||
		snap[1].Name != "aa" || snap[1].Labels["k"] != "2" ||
		snap[2].Name != "zz" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	const goroutines, per = 8, 1000
	done := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < per; j++ {
				r.Counter("n").Inc()
				r.Histogram("h", []float64{10, 1000}).Observe(float64(j))
			}
		}()
	}
	for i := 0; i < goroutines; i++ {
		<-done
	}
	if got := r.Counter("n").Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	h := r.Histogram("h", nil)
	if h.Count() != goroutines*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), goroutines*per)
	}
	var inBuckets int64
	for i := range h.buckets {
		inBuckets += h.buckets[i].Load()
	}
	if inBuckets != h.Count() {
		t.Fatalf("bucket total %d != count %d", inBuckets, h.Count())
	}
}

func TestPrometheusEscaping(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.Counter("c", "path", `a"b\c`+"\n").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `c{path="a\"b\\c\n"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, sb.String())
	}
}
