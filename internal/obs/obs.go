// Package obs is the run-telemetry subsystem: a process-wide registry of
// counters and histograms with snapshot + Prometheus-text
// exposition, phase spans exportable as Chrome trace-event JSON, and
// deterministic per-round message/halt profiles for artifact cells.
//
// The whole package is gated on one process-wide switch: until Enable is
// called every Span returns a shared no-op closure and every metric update
// is skipped, so the simulator's 0-alloc round path and the byte-identity
// of committed artifacts are untouched by merely linking this package.
// Telemetry (spans, counters) is a wall-clock side channel and never enters
// artifacts; the one deterministic product — the per-cell RoundProfile —
// is integer-only and scheduler-independent, and is opt-in per trial.
//
// Dataflow: harness/sweep call sites wrap phases in Span() → spans feed the
// anonlead_phase_seconds histogram in the default Registry and accumulate
// as trace events → WritePrometheus / WriteChromeTrace expose both; the
// sim Observer hook feeds RoundProfile buckets → the harness merges them
// per cell and (optionally) embeds them in the artifact.
// See docs/ARCHITECTURE.md "Observability".
package obs

import "sync/atomic"

// enabled is the process-wide master switch. All recording paths
// (Span, Counter.Inc via callers, RoundObserver construction) consult it
// so that a disabled process pays one atomic load — and, for spans, zero
// allocations — per call site.
var enabled atomic.Bool

// Enable turns telemetry recording on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns telemetry recording off and is the default state.
func Disable() { enabled.Store(false) }

// Enabled reports whether telemetry recording is on. Call sites with
// non-trivial setup cost (building an observer closure, formatting labels)
// should gate on it; metric mutators are themselves no-ops when disabled.
func Enabled() bool { return enabled.Load() }
