package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parsePrometheusText is a strict parser for the subset of the text
// exposition format (0.0.4) this package emits. It returns sample name ->
// value and fails the format on any malformed line, which is what the CI
// "metrics output parses" gate relies on.
func parsePrometheusText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			switch parts[3] {
			case "counter", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[3])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		// sample: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		var val float64
		if valStr == "+Inf" {
			val = math.Inf(+1)
		} else {
			var err error
			val, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
			}
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated label set in %q", ln+1, line)
			}
			name = key[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("line %d: sample %q has no preceding TYPE line", ln+1, name)
			}
		}
		samples[key] = val
	}
	return samples
}

func TestMetricsEndpointServesParseablePrometheus(t *testing.T) {
	withEnabled(t)
	defaultRegistry.Counter("anonlead_cells_done", "exp", "sweeps").Add(81)
	Span("prepare", "cell-0")()
	Span("trials")()
	Span("trials")()

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parsePrometheusText(t, string(body))
	if got := samples[`anonlead_cells_done{exp="sweeps"}`]; got != 81 {
		t.Fatalf("cells_done = %v, want 81:\n%s", got, body)
	}
	if got := samples[`anonlead_phase_seconds_count{phase="trials"}`]; got != 2 {
		t.Fatalf("trials span count = %v, want 2:\n%s", got, body)
	}
	// Histogram cumulative invariant: each successive le bucket >= previous,
	// and the +Inf bucket equals _count.
	var prev float64
	for i, b := range PhaseSecondsBounds {
		key := fmt.Sprintf(`anonlead_phase_seconds_bucket{phase="trials",le="%s"}`, formatFloat(b))
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket sample %q", key)
		}
		if v < prev {
			t.Fatalf("bucket %d not cumulative: %v < %v", i, v, prev)
		}
		prev = v
	}
	inf := samples[`anonlead_phase_seconds_bucket{phase="trials",le="+Inf"}`]
	if inf != samples[`anonlead_phase_seconds_count{phase="trials"}`] {
		t.Fatalf("+Inf bucket %v != count", inf)
	}
}

func TestDebugPprofIndexServes(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

func TestServeBindsAndServes(t *testing.T) {
	withEnabled(t)
	addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics over Serve: status %d", resp.StatusCode)
	}
}
