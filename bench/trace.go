package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one election
// share its id; parent is the index of the enclosing span, -1 at the top.
type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     int
	election   int
}

// recorder keeps the traced pass's spans in memory until the run ends. It
// is driven from the benchmark's single client goroutine only.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int // stack of spans begun and not yet ended
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under the innermost open span and returns its index.
func (r *recorder) begin(name string, election int) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent, election: election})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id, and returns its
// duration.
func (r *recorder) end(id int) time.Duration {
	if len(r.open) == 0 || r.open[len(r.open)-1] != id {
		panic(fmt.Sprintf("bench: span %d ended out of order", id))
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id]
	s.end = time.Since(r.origin)
	return s.end - s.start
}

// child adds a closed span of the given duration under parent, starting
// where the parent starts. It carries time that was accumulated over many
// short calls (every machine Step of a run) as one child, so the parent's
// self time excludes it without a span per call.
func (r *recorder) child(name string, parent int, d time.Duration) {
	start := r.spans[parent].start
	r.add(name, parent, start, start+d)
}

// add records a span measured elsewhere (by an observer's timestamps).
func (r *recorder) add(name string, parent int, start, end time.Duration) {
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, election: r.spans[parent].election})
}

// selfOf returns span id's duration minus the durations of its direct
// children: the time the layer spent itself. Children are always recorded
// after their parent.
func (r *recorder) selfOf(id int) time.Duration {
	s := r.spans[id]
	self := s.end - s.start
	for _, c := range r.spans[id+1:] {
		if c.parent == id {
			self -= c.end - c.start
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds), one track per election id.
func (r *recorder) writeChrome(path string, meta map[string]string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, 0, len(r.spans)+1)
	events = append(events, event{Name: "bench", Ph: "i", Args: meta})
	for _, s := range r.spans {
		ev := event{Name: s.name, Ph: "X", Pid: 1, Tid: s.election + 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3}
		if s.parent >= 0 {
			ev.Args = map[string]string{"parent": r.spans[s.parent].name}
		}
		events = append(events, ev)
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("bench: encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: trace directory: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("bench: write trace: %w", err)
	}
	return nil
}
