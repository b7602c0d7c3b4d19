package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// SpanEvent is one completed phase span, ready for Chrome trace export.
type SpanEvent struct {
	Phase  string
	Detail string
	Start  time.Time
	Dur    time.Duration
}

var spanLog struct {
	mu     sync.Mutex
	events []SpanEvent
}

// noopEnd is the shared closure Span returns while telemetry is disabled,
// keeping the disabled path allocation-free.
var noopEnd = func() {}

// Span starts a phase span and returns the closure that ends it:
//
//	done := obs.Span("prepare", cellLabel)
//	defer done()
//
// While telemetry is disabled this is one atomic load and a shared no-op
// closure — zero allocations. When enabled, ending the span appends it to
// the span log.
func Span(phase string, detail ...string) func() {
	if !enabled.Load() {
		return noopEnd
	}
	d := ""
	if len(detail) > 0 {
		d = detail[0]
	}
	start := time.Now()
	return func() {
		dur := time.Since(start)
		spanLog.mu.Lock()
		spanLog.events = append(spanLog.events, SpanEvent{Phase: phase, Detail: d, Start: start, Dur: dur})
		spanLog.mu.Unlock()
	}
}

// SpanEvents returns a copy of all completed spans, in completion order.
func SpanEvents() []SpanEvent {
	spanLog.mu.Lock()
	defer spanLog.mu.Unlock()
	return append([]SpanEvent(nil), spanLog.events...)
}

// chromeEvent is one complete ("ph":"X") event in the Chrome trace-event
// JSON format understood by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`  // microseconds since trace origin
	Dur  int64             `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the document WriteChromeTrace writes.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace writes every completed span as a Chrome trace-event
// JSON document. Spans are packed onto tracks greedily (each span takes
// the lowest-numbered track that is free at its start time) so concurrent
// phases render side by side instead of overlapping.
func WriteChromeTrace(w io.Writer) error {
	events := SpanEvents()
	sort.SliceStable(events, func(a, b int) bool { return events[a].Start.Before(events[b].Start) })
	var origin time.Time
	if len(events) > 0 {
		origin = events[0].Start
	}
	var trackEnd []time.Time // per-track last occupied instant
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events))}
	for _, ev := range events {
		tid := -1
		for i, end := range trackEnd {
			if !ev.Start.Before(end) {
				tid = i
				break
			}
		}
		if tid < 0 {
			tid = len(trackEnd)
			trackEnd = append(trackEnd, time.Time{})
		}
		trackEnd[tid] = ev.Start.Add(ev.Dur)
		ce := chromeEvent{
			Name: ev.Phase,
			Ph:   "X",
			Ts:   ev.Start.Sub(origin).Microseconds(),
			Dur:  ev.Dur.Microseconds(),
			Pid:  1,
			Tid:  tid + 1,
		}
		if ev.Detail != "" {
			ce.Args = map[string]string{"detail": ev.Detail}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTraceFile writes the span log as Chrome trace-event JSON to
// path (the CLIs' -trace-out).
func WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadChromeTraceFile reads a -trace-out file back into span events
// (lereport -phases), inverting WriteChromeTrace to the microsecond. A
// trace keeps only offsets from its first span, so Starts come back as
// offsets from the Unix epoch. A file that is not a trace, or holds no
// events, is an error naming it.
func ReadChromeTraceFile(path string) ([]SpanEvent, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("obs: %s is not a Chrome trace: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("obs: %s holds no trace events (was the run traced with -trace-out?)", path)
	}
	origin := time.Unix(0, 0)
	events := make([]SpanEvent, len(doc.TraceEvents))
	for i, ce := range doc.TraceEvents {
		events[i] = SpanEvent{
			Phase:  ce.Name,
			Detail: ce.Args["detail"],
			Start:  origin.Add(time.Duration(ce.Ts) * time.Microsecond),
			Dur:    time.Duration(ce.Dur) * time.Microsecond,
		}
	}
	return events, nil
}

// PhaseStat is the aggregate view of one phase, as rendered by the
// lereport phase-breakdown table.
type PhaseStat struct {
	Phase string
	Spans int64
	Total float64 // seconds
}

// PhaseStats sums span events into per-phase totals, sorted by descending
// total time. It takes the events (rather than reading the live log) so
// lereport can consume a -trace-out file from another process.
func PhaseStats(events []SpanEvent) []PhaseStat {
	spans := make(map[string]int64)
	totals := make(map[string]time.Duration)
	for _, ev := range events {
		spans[ev.Phase]++
		totals[ev.Phase] += ev.Dur
	}
	out := make([]PhaseStat, 0, len(spans))
	for p, n := range spans {
		out = append(out, PhaseStat{Phase: p, Spans: n, Total: totals[p].Seconds()})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Total != out[b].Total {
			return out[a].Total > out[b].Total
		}
		return out[a].Phase < out[b].Phase
	})
	return out
}
