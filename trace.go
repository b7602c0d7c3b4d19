package anonlead

import "anonlead/internal/trace"

// TraceEvent is one protocol event streamed to a WithTrace recorder: the
// protocols annotate decision points (e.g. the ire protocol's "candidate"
// and "leader" events, the revocable protocol's "choose") so runs can be
// debugged and asserted on without widening any protocol API. Tracing is
// observation-only: nothing a recorder does flows back into the election.
type TraceEvent = trace.Event

// TraceRecorder receives protocol trace events through its Record method.
// Implementations must be safe for concurrent calls: the parallel
// schedulers emit from worker goroutines.
type TraceRecorder = trace.Recorder

// TraceFunc adapts a function to a TraceRecorder. The function must be
// safe for concurrent calls.
type TraceFunc func(TraceEvent)

// Record implements TraceRecorder.
func (f TraceFunc) Record(e TraceEvent) { f(e) }
