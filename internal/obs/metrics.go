package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing integer. All methods are safe
// for concurrent use and are no-ops while telemetry is disabled.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (which must be >= 0) to the counter.
func (c *Counter) Add(delta int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Histogram counts observations into fixed cumulative-style buckets
// defined by ascending upper bounds, plus a +Inf overflow bucket. Bounds
// are fixed at construction, so concurrent observation is lock-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; implicit +Inf after
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 CAS-accumulated sum
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	// Linear scan: phase/duration histograms have ~10 buckets, and the
	// branch predictor beats sort.SearchFloat64s at that size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind discriminates registry entries in snapshots/exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindHistogram
)

type metric struct {
	name   string
	labels []string // alternating key, value — canonical (sorted) order
	kind   metricKind
	c      *Counter
	h      *Histogram
}

// A Registry holds named metrics. The zero value is not usable; use
// NewRegistry or the package-level Default registry. Metric constructors
// are idempotent: the same (name, labels) pair always returns the same
// instance, so call sites can re-resolve instead of caching.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metric
	ordered []*metric // registration order, for stable iteration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// defaultRegistry is the process-wide registry that Span and the CLIs use.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// canonLabels sorts label pairs by key and returns the canonical slice and
// the map key suffix. Labels come in as alternating key, value strings.
func canonLabels(labels []string) ([]string, string) {
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	canon := make([]string, 0, len(labels))
	var sb strings.Builder
	for _, i := range idx {
		k, v := labels[2*i], labels[2*i+1]
		canon = append(canon, k, v)
		sb.WriteByte('|')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(v)
	}
	return canon, sb.String()
}

// lookup finds or creates the metric for (name, labels); init populates a
// freshly created entry and runs under the registry lock, so concurrent
// first-use of the same key constructs the instance exactly once.
func (r *Registry) lookup(name string, kind metricKind, labels []string, init func(*metric)) *metric {
	canon, suffix := canonLabels(labels)
	key := name + suffix
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := &metric{name: name, labels: canon, kind: kind}
	init(m)
	r.byKey[key] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter for (name, labels), creating it on first use.
// Labels are alternating key, value strings: Counter("cells_done", "exp", "sweeps").
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, kindCounter, labels, func(m *metric) { m.c = &Counter{} }).c
}

// Histogram returns the histogram for (name, labels), creating it with the
// given bucket upper bounds on first use. Later calls for the same
// (name, labels) ignore bounds and return the existing instance.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	return r.lookup(name, kindHistogram, labels, func(m *metric) { m.h = newHistogram(bounds) }).h
}

// MetricPoint is one metric in a Snapshot, JSON-ready.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"` // "counter" | "histogram"

	// Counter value, or a histogram's observation count.
	Count int64 `json:"count,omitempty"`

	// Histogram summary.
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"` // len(Bounds)+1, last is +Inf
}

// Snapshot returns every metric's current value, in a stable order
// (name, then canonical label string). Safe to call concurrently with
// observation; values are read atomically per metric, not globally.
func (r *Registry) Snapshot() []MetricPoint {
	r.mu.Lock()
	ms := make([]*metric, len(r.ordered))
	copy(ms, r.ordered)
	r.mu.Unlock()
	sort.SliceStable(ms, func(a, b int) bool {
		if ms[a].name != ms[b].name {
			return ms[a].name < ms[b].name
		}
		return labelString(ms[a].labels) < labelString(ms[b].labels)
	})
	out := make([]MetricPoint, 0, len(ms))
	for _, m := range ms {
		p := MetricPoint{Name: m.name}
		if len(m.labels) > 0 {
			p.Labels = make(map[string]string, len(m.labels)/2)
			for i := 0; i+1 < len(m.labels); i += 2 {
				p.Labels[m.labels[i]] = m.labels[i+1]
			}
		}
		switch m.kind {
		case kindCounter:
			p.Kind = "counter"
			p.Count = m.c.Value()
		case kindHistogram:
			p.Kind = "histogram"
			p.Count = m.h.Count()
			p.Sum = m.h.Sum()
			p.Bounds = append([]float64(nil), m.h.bounds...)
			p.Buckets = make([]int64, len(m.h.buckets))
			for i := range m.h.buckets {
				p.Buckets[i] = m.h.buckets[i].Load()
			}
		}
		out = append(out, p)
	}
	return out
}

func labelString(labels []string) string {
	return strings.Join(labels, "|")
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4): one TYPE line per metric family, histograms as
// cumulative _bucket/_sum/_count series with an le label.
func (r *Registry) WritePrometheus(w io.Writer) error {
	points := r.Snapshot()
	typed := make(map[string]bool)
	for _, p := range points {
		if !typed[p.Name] {
			typed[p.Name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, p.Kind); err != nil {
				return err
			}
		}
		base := promLabels(p.Labels, "", "")
		switch p.Kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "%s%s %d\n", p.Name, base, p.Count); err != nil {
				return err
			}
		case "histogram":
			cum := int64(0)
			for i, b := range p.Buckets {
				cum += b
				le := "+Inf"
				if i < len(p.Bounds) {
					le = formatFloat(p.Bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					p.Name, promLabels(p.Labels, "le", le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", p.Name, base, formatFloat(p.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", p.Name, base, p.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// promLabels renders a {k="v",...} label set (sorted keys), optionally
// appending one extra pair (the histogram le label). Empty set renders "".
func promLabels(labels map[string]string, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(labels[k]))
		sb.WriteByte('"')
	}
	if extraK != "" {
		if len(keys) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraK)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraV))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Reset drops every metric from the registry. Tests use it to isolate
// cases that assert on the default registry's contents.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byKey = make(map[string]*metric)
	r.ordered = nil
}
