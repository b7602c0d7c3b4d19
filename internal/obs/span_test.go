package obs

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// withEnabled flips telemetry on for one test and restores the disabled
// default afterwards. Tests share process-wide state (the enabled flag and
// the span log), so none of them run in parallel.
func withEnabled(t *testing.T) {
	t.Helper()
	Enable()
	t.Cleanup(func() {
		Disable()
		spanLog.mu.Lock()
		spanLog.events = nil
		spanLog.mu.Unlock()
	})
}

func TestSpanDisabledIsAllocationFree(t *testing.T) {
	Disable()
	avg := testing.AllocsPerRun(100, func() {
		done := Span("prepare", "detail-that-would-allocate")
		done()
	})
	if avg != 0 {
		t.Fatalf("disabled Span allocates %.1f/op, want 0", avg)
	}
	if len(SpanEvents()) != 0 {
		t.Fatal("disabled Span recorded events")
	}
}

// TestSpanFeedsHistogramAndLog: ending a span appends it to the log, and
// the log's per-phase totals are what the phase table renders.
func TestSpanFeedsHistogramAndLog(t *testing.T) {
	withEnabled(t)
	done := Span("trials", "cell-3")
	time.Sleep(time.Millisecond)
	done()
	Span("reduce")()

	events := SpanEvents()
	if len(events) != 2 {
		t.Fatalf("got %d span events, want 2", len(events))
	}
	if events[0].Phase != "trials" || events[0].Detail != "cell-3" {
		t.Fatalf("unexpected first event: %+v", events[0])
	}
	if events[0].Dur < time.Millisecond {
		t.Fatalf("span duration %v, want >= 1ms", events[0].Dur)
	}
	stats := PhaseStats(events)
	if len(stats) != 2 {
		t.Fatalf("got %d phase stats, want 2: %+v", len(stats), stats)
	}
	// "trials" slept a millisecond, "reduce" did not: total-desc order.
	if stats[0].Phase != "trials" || stats[0].Spans != 1 {
		t.Fatalf("unexpected leading phase stat: %+v", stats[0])
	}
}

func TestWriteChromeTracePacksTracks(t *testing.T) {
	withEnabled(t)
	base := time.Now()
	spanLog.mu.Lock()
	spanLog.events = []SpanEvent{
		// Two overlapping spans, then one that starts after both end.
		{Phase: "prepare", Start: base, Dur: 10 * time.Millisecond},
		{Phase: "profile", Start: base.Add(5 * time.Millisecond), Dur: 10 * time.Millisecond, Detail: "x"},
		{Phase: "trials", Start: base.Add(20 * time.Millisecond), Dur: time.Millisecond},
	}
	spanLog.mu.Unlock()

	var sb strings.Builder
	if err := WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 1 || ev.Tid < 1 {
			t.Fatalf("malformed event: %+v", ev)
		}
	}
	if doc.TraceEvents[0].Tid == doc.TraceEvents[1].Tid {
		t.Fatal("overlapping spans packed onto the same track")
	}
	if doc.TraceEvents[2].Tid != 1 {
		t.Fatalf("non-overlapping span should reuse track 1, got %d", doc.TraceEvents[2].Tid)
	}
	if doc.TraceEvents[1].Args["detail"] != "x" {
		t.Fatalf("detail arg lost: %+v", doc.TraceEvents[1])
	}
	if doc.TraceEvents[0].Ts != 0 || doc.TraceEvents[1].Ts != 5000 {
		t.Fatalf("timestamps not relative to origin: %+v", doc.TraceEvents[:2])
	}
}

// TestChromeTraceRoundTripsPhaseStats: spans written with
// WriteChromeTraceFile and read back with ReadChromeTraceFile give the
// phase stats of the live log, every duration cut to the microsecond the
// trace keeps.
func TestChromeTraceRoundTripsPhaseStats(t *testing.T) {
	withEnabled(t)
	for i := 0; i < 3; i++ {
		end := Span("trials", "cell")
		time.Sleep(100 * time.Microsecond)
		end()
	}
	Span("prepare")()
	Span("reduce", "cell")()

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	live := SpanEvents()
	if len(got) != len(live) {
		t.Fatalf("read back %d events, wrote %d", len(got), len(live))
	}
	for i := range live {
		live[i].Dur = live[i].Dur.Truncate(time.Microsecond)
	}
	if want := PhaseStats(live); !reflect.DeepEqual(PhaseStats(got), want) {
		t.Fatalf("phase stats from the trace %+v, from the log %+v", PhaseStats(got), want)
	}
	if !got[0].Start.Equal(time.Unix(0, 0)) || got[0].Detail != "cell" {
		t.Fatalf("first event read back as %+v, want the trace origin and its detail", got[0])
	}
}
